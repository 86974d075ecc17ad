package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/snapshot"
)

const (
	queensN       = 9
	queensWorkers = 2
)

// queensEnv holds the assembled Fig. 1 guest and the frame allocator
// every enumeration draws from.
type queensEnv struct {
	img   *guest.Image
	alloc *mem.FrameAllocator
	// corrupt, when set, mutates each enumeration's boards before they
	// are checked.
	corrupt func([][]byte)
}

// enumeration is one full exploration of the 9-queens search tree.
type enumeration struct {
	wall   time.Duration
	gaps   []int64 // ns from the start, or the previous board, to each board
	stats  core.Stats
	boards [][]byte
}

func setupQueens() (*queensEnv, error) {
	img, err := queens.Asm(queensN)
	if err != nil {
		return nil, err
	}
	q := &queensEnv{img: img, alloc: mem.NewFrameAllocator(0)}
	if _, err := q.enumerate(nil, -1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return q, nil
}

// enumerate loads a fresh guest and explores its whole tree on
// queensWorkers workers, streaming each printed board as it surfaces.
func (q *queensEnv) enumerate(tr *tracer, parent int32) (enumeration, error) {
	as, regs, err := guest.Load(q.img, q.alloc, guest.LoadOptions{})
	if err != nil {
		return enumeration{}, err
	}
	root := &snapshot.Context{Mem: as, FS: fs.New(), Regs: regs}
	var mu sync.Mutex
	arrivals := make([]time.Time, 0, queensBoards)
	boards := make([][]byte, 0, queensBoards)
	eng := core.New(core.NewVMMachine(0), core.Config{
		Workers:          queensWorkers,
		DiscardSolutions: true,
		OnSolution: func(s core.Solution) core.Decision {
			now := time.Now()
			b := append([]byte(nil), s.Out...)
			mu.Lock()
			arrivals = append(arrivals, now)
			boards = append(boards, b)
			mu.Unlock()
			return core.Continue
		},
	})
	start := time.Now()
	res, err := eng.Run(context.Background(), root)
	end := time.Now()
	if err != nil {
		return enumeration{}, err
	}
	if res.FirstPathError != nil {
		return enumeration{}, fmt.Errorf("guest crashed: %w", res.FirstPathError)
	}
	if n := eng.Tree().Live(); n != 0 {
		return enumeration{}, fmt.Errorf("enumeration left %d live snapshots", n)
	}
	span := tr.add("core.enumerate", parent, start, end)
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Before(arrivals[j]) })
	gaps := make([]int64, len(arrivals))
	prev := start
	for i, t := range arrivals {
		gaps[i] = t.Sub(prev).Nanoseconds()
		tr.addRequest("client.board", span, prev, t)
		prev = t
	}
	return enumeration{wall: end.Sub(start), gaps: gaps, stats: res.Stats, boards: boards}, nil
}

// queensPhase is one measured phase of whole enumerations.
type queensPhase struct {
	enums     []enumeration
	wall      time.Duration
	checkErrs []string
}

func (q *queensEnv) run(deadline time.Time, minRounds int, tr *tracer) (queensPhase, error) {
	var ph queensPhase
	start := time.Now()
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		e, err := q.enumerate(tr, -1)
		if err != nil {
			return ph, err
		}
		if q.corrupt != nil {
			q.corrupt(e.boards)
		}
		if err := checkBoards(queensN, e.boards); err != nil && len(ph.checkErrs) < 8 {
			ph.checkErrs = append(ph.checkErrs, err.Error())
		}
		e.boards = nil
		ph.enums = append(ph.enums, e)
	}
	ph.wall = time.Since(start)
	return ph, nil
}

// close reports guest frames still live after every enumeration ended.
func (q *queensEnv) close() error {
	if n := q.alloc.Live(); n != 0 {
		return fmt.Errorf("%d guest frames still live", n)
	}
	return nil
}

// privateKiBPerSnapshot is the pages an enumeration copied or
// zero-filled per snapshot it captured: what one more parked candidate
// costs on top of the state it shares with its parent.
func privateKiBPerSnapshot(st core.Stats) float64 {
	if st.Snapshots == 0 {
		return 0
	}
	return float64(st.CowCopies+st.ZeroFills) * mem.PageSize / 1024 / float64(st.Snapshots)
}
