package main

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/service/wire"
	"repro/internal/solver"
)

// short runs a workload briefly, in a test directory.
func short(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, start: time.Now(), workDir: t.TempDir()}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: attempted %d", cfg.workload, res.Attempted)
	}
	return res
}

func TestPlantedConstruction(t *testing.T) {
	p := newPlanted(satSpec{Vars: 50, Ratio: 4, DeltaClauses: 4, DeltaWidth: 3, UnsatPct: 50}, 3, 1)
	for _, cl := range p.base() {
		if !clauseHolds(cl, p.assign) {
			t.Fatalf("base clause %v not satisfied by the planted assignment", cl)
		}
	}
	sawUnsat := false
	for i := 0; i < 200; i++ {
		d, unsat := p.delta()
		n := len(d)
		if unsat {
			sawUnsat = true
			n -= 4
			block := d[n:]
			// No assignment of the block's two variables satisfies it.
			for bits := 0; bits < 4; bits++ {
				model := make([]bool, p.spec.Vars+1)
				model[abs(block[0][0])] = bits&1 != 0
				model[abs(block[0][1])] = bits&2 != 0
				all := true
				for _, cl := range block {
					all = all && clauseHolds(cl, model)
				}
				if all {
					t.Fatalf("unsat block %v satisfied by %v", block, bits)
				}
			}
		}
		for _, cl := range d[:n] {
			if !clauseHolds(cl, p.assign) {
				t.Fatalf("delta clause %v not satisfied by the planted assignment", cl)
			}
		}
	}
	if !sawUnsat {
		t.Fatal("no delta carried the unsat block")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestEveryWorkloadPasses(t *testing.T) {
	for _, w := range []string{"queens-vm", "wire-small", "extend-large", "spill-revisit"} {
		for _, trace := range []bool{false, true} {
			res := mustRun(t, short(t, w, trace))
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d: %v", w, trace, res.Correct, res.Failed, res.checkErrs)
			}
		}
	}
}

// The negative controls: each corrupted output must fail the run.

func TestFlippedModelBitFailsRun(t *testing.T) {
	cfg := short(t, "wire-small", false)
	cfg.corruptExtend = func(n *node, r *wire.ExtendResult) {
		if r.Verdict != solver.Sat {
			return
		}
		// Flip the variable of a clause it alone satisfies.
		for p := n; p != nil; p = p.parent {
			for _, cl := range p.delta {
				var only, count int
				for _, l := range cl {
					if v := abs(l); v < len(r.Model) && r.Model[v] == (l > 0) {
						only, count = v, count+1
					}
				}
				if count == 1 {
					r.Model[only] = !r.Model[only]
					return
				}
			}
		}
	}
	if res := mustRun(t, cfg); res.Correct {
		t.Fatal("a run whose models carry a flipped bit passed its checks")
	}
}

func TestWrongVerdictFailsRun(t *testing.T) {
	cfg := short(t, "extend-large", false)
	cfg.corruptExtend = func(_ *node, r *wire.ExtendResult) {
		if r.Verdict == solver.Sat {
			r.Verdict, r.Model = solver.Unsat, nil
		}
	}
	if res := mustRun(t, cfg); res.Correct {
		t.Fatal("a run reporting UNSAT for planted SAT problems passed its checks")
	}
}

func TestAttackingBoardFailsRun(t *testing.T) {
	cfg := short(t, "queens-vm", false)
	cfg.corruptBoards = func(boards [][]byte) {
		boards[0][1] = boards[0][0] // two queens on one row
	}
	if res := mustRun(t, cfg); res.Correct {
		t.Fatal("a run printing an attacking board passed its checks")
	}
}

// TestLostIDFailsRun runs spill-revisit without its store, so the
// capacity bound drops ids the clients still hold and revisits of them
// answer ErrEvicted.
func TestLostIDFailsRun(t *testing.T) {
	w := *svcWorkloads["spill-revisit"]
	w.Store = false
	svcWorkloads["spill-no-store"] = &w
	defer delete(svcWorkloads, "spill-no-store")
	cfg := short(t, "spill-no-store", false)
	cfg.seconds = 1
	res := mustRun(t, cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a run whose revisits were refused passed its checks: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(res.checkErrs, "\n"), "lost id") {
		t.Fatalf("refusals not reported as lost ids: %v", res.checkErrs)
	}
}

// TestUnknownIDFailsRun makes every extend reply name an id the service
// never issued, so later operations on those ids answer ErrUnknownRef.
func TestUnknownIDFailsRun(t *testing.T) {
	cfg := short(t, "wire-small", false)
	cfg.corruptExtend = func(_ *node, r *wire.ExtendResult) { r.ID += 1 << 40 }
	res := mustRun(t, cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a run whose operations were refused passed its checks: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestCheckBoardsCountsDistinct(t *testing.T) {
	q, err := setupQueens()
	if err != nil {
		t.Fatal(err)
	}
	e, err := q.enumerate(nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBoards(queensN, e.boards); err != nil {
		t.Fatal(err)
	}
	dup := append(append([][]byte(nil), e.boards[1:]...), e.boards[1])
	if err := checkBoards(queensN, dup); err == nil {
		t.Fatal("a repeated board passed")
	}
	if err := checkBoards(queensN, e.boards[1:]); err == nil {
		t.Fatal("351 boards passed")
	}
}

// TestCleanEnd runs a workload with a store and checks that the run left
// no goroutine, open file, listener or temporary directory behind.
func TestCleanEnd(t *testing.T) {
	for _, w := range []string{"spill-revisit", "queens-vm"} {
		for _, trace := range []bool{false, true} {
			cfg := short(t, w, trace)
			goroutines, fds := runtime.NumGoroutine(), openFDs(t)
			mustRun(t, cfg)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines || openFDs(t) > fds {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%s trace=%v: %d goroutines (was %d), %d open files (was %d)\n%s", w, trace,
						runtime.NumGoroutine(), goroutines, openFDs(t), fds, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
			left, err := os.ReadDir(cfg.workDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("%s trace=%v left %s behind", w, trace, e.Name())
			}
		}
	}
}

// openFDs counts the process's open file descriptors: listeners, client
// and session sockets, and store files all hold one.
func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(ents)
}

func TestUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := mainExit([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %q", out.String())
	}
}
