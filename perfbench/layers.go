package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/service"
	"repro/internal/service/wire"
	"repro/internal/snapshot"
	"repro/internal/solver"
	"repro/internal/store"
)

// stateFile is where the replay keeps a problem's serialized solver,
// as the service does.
const stateFile = "/solver.state"

// layerSamples collects one replay's per-call measurements.
type layerSamples struct {
	codec, dispatch, roundtrip, session []int64 // ns
	extend, touch, release              []int64
	unmarshal, add, solve, marshal      []int64
	update, capture, restore            []int64
	spill, load                         []int64
	stateBytes                          []int64
	fsShared                            []float64
	spillBytes                          []int64
	sharedRatio                         float64
	dedupRatio                          float64
	diskPerRef                          float64 // bytes
}

// replayParent is a problem the replay extends: its service id and the
// replay's own snapshot of the same problem.
type replayParent struct {
	n     *node
	id    uint64
	state *snapshot.State
}

// replaySAT re-runs extends of spec's problems one layer at a time, with
// a span around every call into a layer: the wire codec, dispatch
// without a socket, a loopback round trip, direct service calls, the
// steps of an extend (restore, decode, add, solve, encode, block update,
// capture) and a spill and reload through a store. It runs for budget,
// at least minOps and at most maxOps extends, and checks every verdict and model it
// sees the same way the workloads do.
func replaySAT(spec satSpec, seed int64, budget time.Duration, minOps, maxOps int, workDir string, tr *tracer) (ls layerSamples, err error) {
	ctx := context.Background()
	gen := newPlanted(spec, baseSeed(seed, 0), 1000)
	svc := service.New()
	alloc := mem.NewFrameAllocator(0)
	tree := snapshot.NewTree()
	var held []*snapshot.State
	var srv *server
	var cli *wire.Client
	var st *store.Store
	dir, err := os.MkdirTemp(workDir, "perfbench-replay-")
	if err != nil {
		return ls, err
	}
	defer func() {
		if cli != nil {
			cli.Close()
		}
		if srv != nil {
			srv.close()
		}
		svc.Close()
		for _, s := range held {
			s.Release()
		}
		if st != nil {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
		if err == nil && (svc.LiveSnapshots() != 0 || tree.Live() != 0 || alloc.Live() != 0) {
			err = fmt.Errorf("replay left %d service snapshots, %d replay snapshots, %d frames live",
				svc.LiveSnapshots(), tree.Live(), alloc.Live())
		}
	}()
	if st, err = store.Open(dir); err != nil {
		return ls, err
	}
	if srv, err = startServer(svc); err != nil {
		return ls, err
	}
	if cli, err = srv.dial(); err != nil {
		return ls, err
	}

	// The base, in the service and as the replay's own snapshot.
	base := replayParent{n: &node{delta: gen.base(), ok: true}}
	if len(base.n.delta) > 0 {
		res, err := svc.Extend(ctx, 0, base.n.delta)
		if err != nil {
			return ls, err
		}
		if err := checkExtend(base.n, res.Verdict, res.Model); err != nil {
			return ls, err
		}
		base.id, base.n.verdict = res.ID, res.Verdict
		if err := svc.Pin(base.id); err != nil {
			return ls, err
		}
	}
	rootCtx := &snapshot.Context{Mem: mem.NewAddressSpace(alloc), FS: fs.New()}
	sol := solver.New(0)
	for _, cl := range base.n.delta {
		if err := sol.AddClause(cl...); err != nil {
			return ls, err
		}
	}
	sol.Solve(0)
	if err := rootCtx.FS.WriteFile(stateFile, sol.Marshal()); err != nil {
		return ls, err
	}
	base.state = tree.Capture(rootCtx, nil)
	rootCtx.Release()
	held = append(held, base.state)

	parent := base
	start := time.Now()
	for k := 0; k < maxOps && (k < minOps || time.Since(start) < budget); k++ {
		delta, unsat := gen.delta()
		child := &node{parent: parent.n, delta: delta, unsat: parent.n.unsat || unsat, depth: parent.n.depth + 1}
		op := tr.begin("replay.op", -1)
		req := wire.Request{Op: wire.OpExtend, ReqID: uint64(k) + 1, ID: parent.id, Groups: [][][]int{delta}}

		var codec time.Duration
		codec += tr.timed("wire.codec", op, func() {
			frame, e := wire.EncodeRequest(req)
			if e == nil {
				_, e = wire.DecodeRequest(frame[4:])
			}
			err = e
		})
		if err != nil {
			return ls, err
		}
		var resp wire.Response
		dispatch := tr.timed("wire.dispatch", op, func() { resp = wire.Dispatch(ctx, svc, req, 0) })
		if resp.Err != "" {
			return ls, fmt.Errorf("dispatch: %s", resp.Err)
		}
		codec += tr.timed("wire.codec", op, func() {
			frame, e := wire.EncodeResponse(resp)
			if e == nil {
				_, e = wire.DecodeResponse(frame[4:])
			}
			err = e
		})
		if err != nil {
			return ls, err
		}
		var rt wire.Response
		roundtrip := tr.timed("wire.roundtrip", op, func() { rt, err = cli.Do(ctx, req) })
		if err != nil {
			return ls, err
		}
		var res service.Result
		extend := tr.timed("service.extend", op, func() { res, err = svc.Extend(ctx, parent.id, delta) })
		if err != nil {
			return ls, err
		}
		for _, r := range []wire.ExtendResult{resp.Results[0], rt.Results[0], {ID: res.ID, Verdict: res.Verdict, Model: res.Model}} {
			child.id = r.ID
			if err := checkExtend(child, r.Verdict, r.Model); err != nil {
				return ls, fmt.Errorf("replay: %w", err)
			}
		}
		child.id, child.verdict = res.ID, res.Verdict
		touch := tr.timed("service.touch", op, func() { err = svc.Touch(res.ID) })
		if err != nil {
			return ls, err
		}
		release := tr.timed("service.release", op, func() { err = svc.Release(resp.Results[0].ID) })
		if err != nil {
			return ls, err
		}
		if err := svc.Release(rt.Results[0].ID); err != nil {
			return ls, err
		}

		// The steps of an extend, one layer call at a time.
		ext := tr.begin("replay.extend", op)
		var cand *snapshot.Context
		restore := tr.timed("snapshot.restore", ext, func() { cand = parent.state.Restore() })
		var data []byte
		tr.timed("fs.read", ext, func() { data, err = cand.FS.ReadFile(stateFile) })
		if err != nil {
			cand.Release()
			return ls, err
		}
		var s *solver.Solver
		unmarshal := tr.timed("solver.unmarshal", ext, func() { s, err = solver.Unmarshal(data) })
		if err != nil {
			cand.Release()
			return ls, err
		}
		add := tr.timed("solver.add", ext, func() {
			for _, cl := range delta {
				if err = s.AddClause(cl...); err != nil {
					return
				}
			}
		})
		if err != nil {
			cand.Release()
			return ls, err
		}
		var verdict solver.Status
		solve := tr.timed("solver.solve", ext, func() { verdict = s.Solve(0) })
		var model []bool
		if verdict == solver.Sat {
			model = s.Model()
		}
		if err := checkExtend(child, verdict, model); err != nil {
			cand.Release()
			return ls, fmt.Errorf("replay: %w", err)
		}
		var enc []byte
		marshal := tr.timed("solver.marshal", ext, func() { enc = s.Marshal() })
		update := tr.timed("fs.update", ext, func() { err = cand.FS.UpdateFile(stateFile, enc) })
		if err != nil {
			cand.Release()
			return ls, err
		}
		var state *snapshot.State
		capture := tr.timed("snapshot.capture", ext, func() { state = tree.Capture(cand, parent.state) })
		cand.Release()
		tr.end(ext)
		held = append(held, state)
		priv, shared := state.FS().Footprint()
		if priv+shared > 0 {
			ls.fsShared = append(ls.fsShared, float64(shared)/float64(priv+shared))
		}

		before := st.Stats().ColdBytes
		spill := tr.timed("store.spill", op, func() { err = st.Spill(uint64(k)+1, state) })
		if err != nil {
			return ls, err
		}
		ls.spillBytes = append(ls.spillBytes, st.Stats().ColdBytes-before)
		var loaded *snapshot.Context
		load := tr.timed("store.load", op, func() { loaded, _, err = st.Load(uint64(k)+1, alloc) })
		if err != nil {
			return ls, err
		}
		loaded.Release()
		tr.end(op)

		ls.codec = append(ls.codec, codec.Nanoseconds())
		ls.dispatch = append(ls.dispatch, dispatch.Nanoseconds())
		ls.roundtrip = append(ls.roundtrip, roundtrip.Nanoseconds())
		ls.session = append(ls.session, (roundtrip - dispatch).Nanoseconds())
		ls.extend = append(ls.extend, extend.Nanoseconds())
		ls.touch = append(ls.touch, touch.Nanoseconds())
		ls.release = append(ls.release, release.Nanoseconds())
		ls.unmarshal = append(ls.unmarshal, unmarshal.Nanoseconds())
		ls.add = append(ls.add, add.Nanoseconds())
		ls.solve = append(ls.solve, solve.Nanoseconds())
		ls.marshal = append(ls.marshal, marshal.Nanoseconds())
		ls.update = append(ls.update, update.Nanoseconds())
		ls.capture = append(ls.capture, capture.Nanoseconds())
		ls.restore = append(ls.restore, restore.Nanoseconds())
		ls.spill = append(ls.spill, spill.Nanoseconds())
		ls.load = append(ls.load, load.Nanoseconds())
		ls.stateBytes = append(ls.stateBytes, int64(len(enc)))

		// Alternate siblings of the base with short chains, as the
		// workloads do.
		if k%2 == 0 && child.depth < 3 {
			parent = replayParent{n: child, id: res.ID, state: state}
		} else {
			parent = base
		}
	}
	ls.sharedRatio = svc.Stats().SharedRatio()
	cold := st.Stats()
	ls.dedupRatio = cold.DedupRatio()
	if cold.Manifests > 0 {
		ls.diskPerRef = float64(cold.ColdBytes) / float64(cold.Manifests)
	}
	return ls, nil
}

// guestSnapshots times Tree.Capture and State.Restore on the loaded
// 9-queens guest: the snapshot layer as the engine uses it.
func guestSnapshots(q *queensEnv, n int, tr *tracer) (capture, restore []int64, err error) {
	as, regs, err := guest.Load(q.img, q.alloc, guest.LoadOptions{})
	if err != nil {
		return nil, nil, err
	}
	ctx := &snapshot.Context{Mem: as, FS: fs.New(), Regs: regs}
	defer ctx.Release()
	tree := snapshot.NewTree()
	for i := 0; i < n; i++ {
		var st *snapshot.State
		capture = append(capture, tr.timed("snapshot.capture", -1, func() { st = tree.Capture(ctx, nil) }).Nanoseconds())
		var c *snapshot.Context
		restore = append(restore, tr.timed("snapshot.restore", -1, func() { c = st.Restore() }).Nanoseconds())
		c.Release()
		st.Release()
	}
	if tree.Live() != 0 {
		return nil, nil, fmt.Errorf("%d guest snapshots still live", tree.Live())
	}
	return capture, restore, nil
}
