package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
)

// Shares of --seconds in a traced run: the workload untraced, the same
// workload traced (the difference is the tracing overhead), and the
// layer replay.
const (
	untracedShare = 0.4
	tracedShare   = 0.4
	replayShare   = 0.2
	replayMinOps  = 20
	replayMaxOps  = 400
	guestSnapOps  = 2000
)

func traceService(cfg config, w *svcWorkload, res *result) error {
	env, err := setupService(w, cfg.seed, cfg.workDir)
	if err != nil {
		return err
	}
	for _, c := range env.clients {
		c.corrupt = cfg.corruptExtend
	}
	plain, err := env.run(deadline(cfg.seconds*untracedShare), 1, nil)
	if err != nil {
		env.close()
		return err
	}
	tr := newTracer()
	traced, err := env.run(deadline(cfg.seconds*tracedShare), 1, tr)
	if err != nil {
		env.close()
		return err
	}
	stats := env.svc.Stats()
	var diskPerRef, dedup float64
	haveStore := env.st != nil
	if haveStore {
		cold := env.st.Stats()
		dedup = cold.DedupRatio()
		if cold.Manifests > 0 {
			diskPerRef = float64(cold.ColdBytes) / float64(cold.Manifests)
		}
	}
	if err := env.close(); err != nil {
		return err
	}
	ls, err := replaySAT(w.Sat, cfg.seed, seconds(cfg.seconds*replayShare), replayMinOps, replayMaxOps, cfg.workDir, tr)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	if haveStore {
		ls.dedupRatio, ls.diskPerRef = dedup, diskPerRef
	}
	ls.sharedRatio = median(traced.sharedRatio)
	q, err := setupQueens()
	if err != nil {
		return err
	}
	probe, err := q.enumerate(tr, -1)
	if err != nil {
		return err
	}
	if err := q.close(); err != nil {
		return err
	}

	res.Attempted = plain.ops + traced.ops
	res.Failed = plain.failed + traced.failed
	res.checkErrs = append(plain.checkErrs, traced.checkErrs...)
	layerMetrics(res, ls, ls.capture, ls.restore)
	reloadRatio := 0.0
	if n := plain.revisits + traced.revisits; n > 0 {
		reloadRatio = float64(stats.Reloads) / float64(n)
	}
	res.set("store.reload_ratio", reloadRatio, "ratio")
	engineMetrics(res, []enumeration{probe})
	overhead(res, plain.wall, plain.ops, traced.wall, traced.ops)
	selfTimeReport(res, tr)
	return writeSpans(cfg, tr, res)
}

func traceQueens(cfg config, res *result) error {
	q, err := setupQueens()
	if err != nil {
		return err
	}
	q.corrupt = cfg.corruptBoards
	plain, err := q.run(deadline(cfg.seconds*untracedShare), 1, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := q.run(deadline(cfg.seconds*tracedShare), 1, tr)
	if err != nil {
		return err
	}
	capture, restore, err := guestSnapshots(q, guestSnapOps, tr)
	if err != nil {
		return err
	}
	if err := q.close(); err != nil {
		return err
	}
	// queens-vm does not reach the service, solver, fs or store; their
	// metrics here come from the probe workload's inputs, for which no
	// change is predicted on this workload.
	ls, err := replaySAT(svcWorkloads[probeWorkload].Sat, cfg.seed, seconds(cfg.seconds*replayShare), replayMinOps, replayMaxOps, cfg.workDir, tr)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	res.Attempted = len(plain.enums) + len(traced.enums)
	res.checkErrs = append(plain.checkErrs, traced.checkErrs...)
	layerMetrics(res, ls, capture, restore)
	res.set("store.reload_ratio", 0, "ratio")
	engineMetrics(res, traced.enums)
	var plainBoards, tracedBoards int
	for _, e := range plain.enums {
		plainBoards += len(e.gaps)
	}
	for _, e := range traced.enums {
		tracedBoards += len(e.gaps)
	}
	overhead(res, plain.wall, plainBoards, traced.wall, tracedBoards)
	selfTimeReport(res, tr)
	return writeSpans(cfg, tr, res)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// layerMetrics reports the replay's per-call times as interquartile
// means: as robust to outliers as a median, without snapping to the
// timer's resolution.
func layerMetrics(res *result, ls layerSamples, capture, restore []int64) {
	us := func(v []int64) float64 { return iqMean(v) / 1e3 }
	ns := iqMean
	res.set("wire.codec_ns", ns(ls.codec), "ns")
	res.set("wire.dispatch_us", us(ls.dispatch), "us")
	res.set("wire.roundtrip_us", us(ls.roundtrip), "us")
	res.set("wire.session_us", us(ls.session), "us")
	res.set("service.extend_us", us(ls.extend), "us")
	res.set("service.touch_us", us(ls.touch), "us")
	res.set("service.release_us", us(ls.release), "us")
	res.set("service.shared_ratio", ls.sharedRatio, "ratio")
	res.set("solver.unmarshal_us", us(ls.unmarshal), "us")
	res.set("solver.add_us", us(ls.add), "us")
	res.set("solver.solve_us", us(ls.solve), "us")
	res.set("solver.marshal_us", us(ls.marshal), "us")
	res.set("solver.state_kib", median(nsTo(ls.stateBytes, 1024)), "KiB")
	res.set("fs.update_us", us(ls.update), "us")
	res.set("fs.shared_ratio", median(ls.fsShared), "ratio")
	res.set("snapshot.capture_ns", ns(capture), "ns")
	res.set("snapshot.restore_ns", ns(restore), "ns")
	res.set("store.spill_us", us(ls.spill), "us")
	res.set("store.load_us", us(ls.load), "us")
	res.set("store.dedup_ratio", ls.dedupRatio, "ratio")
	res.set("store.bytes_per_spill", median(nsTo(ls.spillBytes, 1)), "B")
	res.set("store.disk_kib_per_ref", ls.diskPerRef/1024, "KiB")
	res.printf("layer replay: %d extends", len(ls.extend))
}

// engineMetrics reports per-enumeration engine counters (medians).
func engineMetrics(res *result, enums []enumeration) {
	pick := func(f func(core.Stats) float64) float64 {
		v := make([]float64, len(enums))
		for i, e := range enums {
			v[i] = f(e.stats)
		}
		return median(v)
	}
	res.set("core.nodes", pick(func(s core.Stats) float64 { return float64(s.Nodes) }), "count")
	res.set("core.snapshots", pick(func(s core.Stats) float64 { return float64(s.Snapshots) }), "count")
	nps := make([]float64, len(enums))
	for i, e := range enums {
		nps[i] = float64(e.stats.Nodes) / e.wall.Seconds()
	}
	res.set("core.nodes_per_s", median(nps), "1/s")
	res.set("search.steals", pick(func(s core.Stats) float64 { return float64(s.Steals) }), "count")
	res.set("search.local_pops", pick(func(s core.Stats) float64 { return float64(s.LocalPops) }), "count")
	res.set("mem.cow_copies", pick(func(s core.Stats) float64 { return float64(s.CowCopies) }), "count")
	res.set("mem.zero_fills", pick(func(s core.Stats) float64 { return float64(s.ZeroFills) }), "count")
	res.set("mem.node_clones", pick(func(s core.Stats) float64 { return float64(s.NodeClones) }), "count")
	res.set("mem.tlb_hit_ratio", pick(func(s core.Stats) float64 {
		if s.TLBHits+s.TLBMisses == 0 {
			return 0
		}
		return float64(s.TLBHits) / float64(s.TLBHits+s.TLBMisses)
	}), "ratio")
}

// overhead compares the traced phase's throughput with the untraced
// phase's.
func overhead(res *result, plainWall time.Duration, plainOps int, tracedWall time.Duration, tracedOps int) {
	plain := float64(plainOps) / plainWall.Seconds()
	traced := float64(tracedOps) / tracedWall.Seconds()
	pct := (plain/traced - 1) * 100
	res.set("trace.overhead_pct", pct, "%")
	res.printf("tracing overhead: untraced %.1f ops/s, traced %.1f ops/s, %+.2f%%", plain, traced, pct)
}

// selfTimeReport prints each layer's self time over every span.
func selfTimeReport(res *result, tr *tracer) {
	self := tr.selfTimes()
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	res.printf("self time by layer (%d spans):", len(tr.spans))
	for _, l := range layers {
		res.printf("  %-9s %10.1f ms  %5.1f%%", l, float64(self[l])/1e6, 100*float64(self[l])/float64(total))
	}
}

// iqMean is the mean of the samples between the first and third
// quartiles.
func iqMean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += float64(x)
	}
	return sum / float64(hi-lo)
}
