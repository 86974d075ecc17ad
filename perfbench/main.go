// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time and prints its end-to-end metrics (with
// --trace 0) or its per-layer metrics (with --trace 1), the operations
// attempted and failed, and the outcome of the workload's output checks.
// The last line of its output is one JSON object with that result.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: queens-vm, wire-small, extend-large, spill-revisit (see
// README.md). Every input is generated from --seed; the program under
// test only sees the generated clauses and the guest image.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/service/wire"
)

// The service workloads. Their make-up, and why each exists, is in
// README.md; queens-vm is handled apart because it drives the engine,
// not the service.
var svcWorkloads = map[string]*svcWorkload{
	"wire-small": {
		Sat:   satSpec{Vars: 16, DeltaClauses: 1, DeltaWidth: 2, UnsatPct: 5},
		Conns: 2, Depth: 8, RoundOps: 512,
		Mix:    mix{Sibling: 2, Chain: 4, Touch: 3, Release: 1},
		Window: 32, MaxDepth: 8, Bases: 1, ReleaseAtCap: true,
	},
	"extend-large": {
		Sat:   satSpec{Vars: 2000, Ratio: 3.0, DeltaClauses: 4, DeltaWidth: 3, UnsatPct: 10},
		Conns: 2, Depth: 1, RoundOps: 16,
		Mix:    mix{Sibling: 1, Chain: 1},
		Window: 8, MaxDepth: 3, Bases: 16, Capacity: 512,
	},
	"spill-revisit": {
		Sat:   satSpec{Vars: 500, Ratio: 3.0, DeltaClauses: 4, DeltaWidth: 3, UnsatPct: 10},
		Conns: 2, Depth: 1, RoundOps: 16,
		Mix:    mix{Sibling: 1, Revisit: 1},
		Window: 48, MaxDepth: 4, Bases: 4, Capacity: 16, Store: true,
	},
}

const queensWorkload = "queens-vm"

// processStart is when the command started (package initialisation,
// just before main); setup_s runs from here to the first measured
// operation.
var processStart = time.Now()

// probeWorkload supplies the service-side layer replay on queens-vm,
// which does not use those layers itself.
const probeWorkload = "wire-small"

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	start    time.Time // setup_s runs from here to the first measured operation
	spansDir string    // where the traced run writes its spans ("" = nowhere)
	workDir  string    // where temporary stores live (the checkout root)

	// Fault injection for the benchmark's own tests.
	corruptExtend func(*node, *wire.ExtendResult)
	corruptBoards func([][]byte)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report    []string // human-readable lines printed before the JSON
	checkErrs []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) printf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "workload name")
	fl.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fl.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fl.StringVar(&cfg.spansDir, "spans-dir", "", "directory for the traced run's spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	cfg.start, cfg.workDir = processStart, "."
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	for _, e := range res.checkErrs {
		fmt.Fprintln(stdout, "CHECK FAILED:", e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// run executes one invocation and returns its result; an error means the
// benchmark itself could not run (no result is printed).
func run(cfg config) (*result, error) {
	runtime.GC()
	w, isSvc := svcWorkloads[cfg.workload]
	if !isSvc && cfg.workload != queensWorkload {
		names := []string{queensWorkload}
		for n := range svcWorkloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	res := &result{}
	res.printf("workload %s seed %d seconds %g trace %v GOMAXPROCS %d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	var err error
	switch {
	case isSvc && !cfg.trace:
		err = runService(cfg, w, res)
	case isSvc:
		err = traceService(cfg, w, res)
	case !cfg.trace:
		err = runQueens(cfg, res)
	default:
		err = traceQueens(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.checkErrs) == 0
	res.printf("attempted %d failed %d correct %v", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

func runService(cfg config, w *svcWorkload, res *result) error {
	env, err := setupService(w, cfg.seed, cfg.workDir)
	if err != nil {
		return err
	}
	for _, c := range env.clients {
		c.corrupt = cfg.corruptExtend
	}
	heap := startHeapSampler()
	setupS := time.Since(cfg.start).Seconds()
	ph, err := env.run(deadline(cfg.seconds), 1, nil)
	heapMiB := heap.finish()
	if err != nil {
		env.close()
		return err
	}
	stats := env.svc.Stats()
	if err := env.close(); err != nil {
		return err
	}
	res.Attempted, res.Failed, res.checkErrs = ph.ops, ph.failed, ph.checkErrs
	res.set("req_per_s", perSecond(res, ph.perSec, ph.ops, ph.wall), "req/s")
	res.printf("latencies: a uniform sample of %d of the %d operations", len(ph.lats), ph.ops)
	latencyMetrics(res, ph.lats, "request")
	kindReport(res, ph.lats, ph.kinds)
	res.set("enum_ms", median(nsTo(ph.rounds, 1e6)), "ms")
	res.printf("enum_ms: median of %d rounds of %d operations", len(ph.rounds), w.RoundOps)
	res.set("private_kib_per_ref", median(ph.privKiBPerRef), "KiB")
	res.printf("private_kib_per_ref: median of %d samples of Stats().PrivateBytes/Refs, one per %v", len(ph.privKiBPerRef), statsEvery)
	res.printf("service at end of phase: %s", stats.Line())
	if w.Store {
		res.printf("revisits %d reloads %d", ph.revisits, stats.Reloads)
	}
	commonMetrics(res, setupS, heapMiB)
	return nil
}

func runQueens(cfg config, res *result) error {
	q, err := setupQueens()
	if err != nil {
		return err
	}
	q.corrupt = cfg.corruptBoards
	heap := startHeapSampler()
	setupS := time.Since(cfg.start).Seconds()
	ph, err := q.run(deadline(cfg.seconds), 1, nil)
	heapMiB := heap.finish()
	if err != nil {
		return err
	}
	if err := q.close(); err != nil {
		return err
	}
	res.Attempted, res.checkErrs = len(ph.enums), ph.checkErrs
	var gaps []int64
	var walls, priv []float64
	for _, e := range ph.enums {
		gaps = append(gaps, e.gaps...)
		walls = append(walls, e.wall.Seconds()*1e3)
		priv = append(priv, privateKiBPerSnapshot(e.stats))
	}
	rates := make([]float64, len(ph.enums))
	for i, e := range ph.enums {
		rates[i] = float64(len(e.gaps)) / e.wall.Seconds()
	}
	res.set("req_per_s", median(rates), "req/s")
	res.printf("req_per_s: boards per second, median over %d enumerations (whole phase: %.1f)", len(rates), float64(len(gaps))/ph.wall.Seconds())
	latencyMetrics(res, gaps, "board")
	res.set("enum_ms", median(walls), "ms")
	res.printf("enum_ms: median of %d enumerations; last: %d nodes, %d snapshots", len(walls),
		ph.enums[len(ph.enums)-1].stats.Nodes, ph.enums[len(ph.enums)-1].stats.Snapshots)
	res.set("private_kib_per_ref", median(priv), "KiB")
	commonMetrics(res, setupS, heapMiB)
	return nil
}

// latencyMetrics reports the median of one sample set and prints its
// 99th percentile, its tail (the highest percentile with ten samples
// beyond it) and, as a diagnostic, the median of the p99s of consecutive
// time windows. The p99 is printed, not reported as a metric: on this
// shared box it spreads too far between runs to hold a bound (see
// README.md). lats is in completion order.
func latencyMetrics(res *result, lats []int64, what string) {
	sorted := append([]int64(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	us := func(q float64) float64 { return float64(quantile(sorted, q)) / 1e3 }
	res.set("latency_p50_us", us(0.50), "us")
	n := len(sorted)
	beyond := n - int(math.Ceil(0.99*float64(n)))
	tail := "none (fewer than 40 samples)"
	if n >= 40 {
		q := tailQuantile(n)
		tail = fmt.Sprintf("p%s = %.1f us", strconv.FormatFloat(q*100, 'f', -1, 64), us(q))
	}
	res.printf("latency per %s: n=%d p50=%.1f us p99=%.1f us (%d samples beyond p99); highest percentile with >= 10 samples beyond: %s",
		what, n, us(0.5), us(0.99), beyond, tail)
	if p99, windows := windowP99(lats); windows > 1 {
		res.printf("  median p99 of %d consecutive windows of %d samples: %.1f us", windows, n/windows, p99/1e3)
	}
}

// kindReport prints the latency of each operation kind.
func kindReport(res *result, lats []int64, kinds8 []uint8) {
	kindLats := make(map[string][]int64)
	for i, l := range lats {
		kindLats[kindName(kinds8[i])] = append(kindLats[kindName(kinds8[i])], l)
	}
	kinds := make([]string, 0, len(kindLats))
	for k := range kindLats {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := append([]int64(nil), kindLats[k]...)
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		res.printf("  %-8s n=%d p50=%.1f us p99=%.1f us", k, len(v), float64(quantile(v, 0.5))/1e3, float64(quantile(v, 0.99))/1e3)
	}
}

func commonMetrics(res *result, setupS float64, heapMiB []float64) {
	res.set("heap_live_mib", median(heapMiB), "MiB")
	res.printf("heap_live_mib: median of %d samples; process peak resident set %.1f MiB", len(heapMiB), peakRSSMiB())
	res.set("setup_s", setupS, "s")
}

// heapEvery is how often the live heap is sampled during a phase.
const heapEvery = 100 * time.Millisecond

// heapSampler samples the live heap — the bytes the last GC found
// reachable (runtime/metrics /gc/heap/live:bytes) — while a phase runs.
// Unlike the resident-set high-water mark it does not depend on when
// collections happened to run.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var out []float64
		read := func() {
			metrics.Read(sample)
			out = append(out, float64(sample[0].Value.Uint64())/(1<<20))
		}
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-h.stop:
				read()
				h.done <- out
				return
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples in MiB.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	return <-h.done
}

func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// Windows for the 99th percentile: at most maxWindows, each with at
// least windowSamples samples so that ten lie beyond its p99.
const (
	maxWindows    = 10
	windowSamples = 1000
)

// windowP99 splits time-ordered samples into consecutive windows and
// returns the median of the windows' 99th percentiles, which tells a
// stall confined to one window (another tenant's burst on a shared box)
// from a tail spread over the whole phase. With fewer than two windows'
// worth of samples it returns k < 2 and no figure.
func windowP99(lats []int64) (float64, int) {
	k := min(maxWindows, len(lats)/windowSamples)
	if k < 2 {
		return 0, k
	}
	p99s := make([]float64, k)
	for w := range p99s {
		win := append([]int64(nil), lats[w*len(lats)/k:(w+1)*len(lats)/k]...)
		sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
		p99s[w] = float64(quantile(win, 0.99))
	}
	return median(p99s), k
}

// perSecond is the median of the completions in each whole second of a
// phase (the last, partial second is left out); with fewer than three
// whole seconds it is the phase's mean rate.
func perSecond(res *result, perSec []int64, ops int, wall time.Duration) float64 {
	mean := float64(ops) / wall.Seconds()
	if len(perSec) < 4 {
		return mean
	}
	v := nsTo(perSec[:len(perSec)-1], 1)
	res.printf("req_per_s: median of %d one-second counts (whole phase: %.1f)", len(v), mean)
	return median(v)
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailQuantile is the highest of p90, p99, p99.9, ... that leaves at
// least ten of n samples beyond it.
func tailQuantile(n int) float64 {
	q := 0.9
	for next := 1 - (1-q)/10; float64(n)*(1-next) >= 10; next = 1 - (1-next)/10 {
		q = next
	}
	return q
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func nsTo(v []int64, div float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x) / div
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// writeSpans writes the traced run's spans when a directory was given.
func writeSpans(cfg config, tr *tracer, res *result) error {
	if cfg.spansDir == "" {
		return nil
	}
	path := filepath.Join(cfg.spansDir, "spans-"+cfg.workload+".jsonl")
	if err := tr.writeFile(path); err != nil {
		return err
	}
	res.printf("spans: %d written to %s (%d more not kept)", len(tr.spans), path, tr.dropped)
	return nil
}
