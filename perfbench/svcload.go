package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/service/wire"
	"repro/internal/store"
)

// mix weights the operation kinds a service client draws.
type mix struct {
	Sibling int // extend a base
	Chain   int // extend one of the client's recent problems
	Revisit int // extend one of the client's oldest problems
	Touch   int // LRU keep-alive on a recent problem
	Release int // drop the client's oldest problem
}

// svcWorkload is one traffic mix against the solver service.
type svcWorkload struct {
	Sat      satSpec
	Conns    int // client connections, one issuing goroutine each
	Depth    int // requests in flight per connection
	RoundOps int // operations per round; a run attempts whole rounds
	Mix      mix
	Window   int // problems per connection the client keeps using
	MaxDepth int // longest chain of extends below a base
	Bases    int // pinned base problems (1 with Ratio 0: the empty root)
	Capacity int // service hot capacity (Config.Capacity)
	// Store attaches a store, so the capacity bound demotes instead of
	// dropping.
	Store bool
	// ReleaseAtCap turns an extend drawn at a full window into a release
	// of the client's oldest problem, as cmd/loadgen does at its known-id
	// cap. Otherwise the oldest problem is forgotten and left to the
	// capacity bound, which must then be far above every client's window.
	ReleaseAtCap bool
}

type opKind uint8

const (
	opExtend opKind = iota
	opTouch
	opRelease
)

// opRec is one issued operation, kept in its connection's window ring.
type opRec struct {
	kind    opKind
	n       *node // extend: the problem created; touch/release: the target
	revisit bool
	round   int
	issued  time.Time
}

type liveNode struct {
	n                *node
	created, lastUse int64
}

// client is one connection's closed-loop generator. Operation i is
// issued only after every operation up to i-Depth has completed, so at
// most Depth requests are in flight and every operand an operation
// names was created by a completed request. Which operand is chosen
// depends only on the seed, never on completion order.
type client struct {
	w     *svcWorkload
	cli   *wire.Client
	gens  []*planted // per base: deltas planted for that base's assignment
	bases []*node
	rng   *rand.Rand
	live  []liveNode // oldest first
	ring  []opRec
	next  int64 // next operation index (issuer only)
	// corrupt, when set, mutates extend replies before they are checked.
	corrupt func(*node, *wire.ExtendResult)

	doneCh chan *wire.Call
	mu     sync.Mutex
	cond   *sync.Cond
	done   []bool // guarded by mu
	prefix int64  // guarded by mu: operations [0, prefix) have completed

	// Collector-owned until the phase ends.
	samples   *reservoir
	completed int
	start     time.Time // the phase's start, shared by its connections
	perSec    []int64   // completions in each second of the phase
	rounds    map[int]*roundTimes
	failed    int
	revisits  int
	checkErrs []string
	fatal     error
	collected chan struct{}
	tr        *tracer
	roundSpan map[int]int32
}

type roundTimes struct {
	start, end time.Time
	left       int
}

func newClient(w *svcWorkload, cli *wire.Client, gens []*planted, bases []*node, seed int64) *client {
	c := &client{
		w: w, cli: cli, gens: gens, bases: bases,
		rng:  rand.New(rand.NewSource(seed)),
		ring: make([]opRec, w.Depth),
		done: make([]bool, w.Depth),
		// Sized to the window: at most Depth replies are ever pending.
		doneCh: make(chan *wire.Call, w.Depth),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// phase runs rounds until deadline (at least minRounds), then waits for
// every reply. Replies are checked as they arrive.
func (c *client) phase(start, deadline time.Time, minRounds int, tr *tracer) {
	c.samples = newReservoir(c.rng.Int63())
	c.completed, c.start, c.perSec = 0, start, c.perSec[:0]
	c.rounds = make(map[int]*roundTimes)
	c.roundSpan = make(map[int]int32)
	c.failed, c.revisits, c.checkErrs, c.fatal = 0, 0, nil, nil
	c.tr = tr
	c.collected = make(chan struct{})
	go c.collect()
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		if c.fatalSeen() {
			break
		}
		for k := 0; k < c.w.RoundOps; k++ {
			c.issue(r)
		}
	}
	c.mu.Lock()
	for c.prefix < c.next {
		c.cond.Wait()
	}
	c.mu.Unlock()
	close(c.doneCh)
	<-c.collected
	c.doneCh = make(chan *wire.Call, c.w.Depth)
}

func (c *client) fatalSeen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fatal != nil
}

func (c *client) issue(round int) {
	i := c.next
	c.next++
	c.mu.Lock()
	for c.prefix < i-int64(c.w.Depth)+1 {
		c.cond.Wait()
	}
	c.mu.Unlock()

	rec := c.plan(i)
	rec.round = round
	req := wire.Request{ReqID: uint64(i) + 1}
	switch rec.kind {
	case opExtend:
		req.Op, req.ID, req.Groups = wire.OpExtend, rec.n.parent.id, [][][]int{rec.n.delta}
	case opTouch:
		req.Op, req.ID = wire.OpTouch, rec.n.id
	case opRelease:
		req.Op, req.ID = wire.OpRelease, rec.n.id
	}
	rec.issued = time.Now()
	c.ring[i%int64(c.w.Depth)] = rec
	c.cli.Go(req, c.doneCh)
}

// eligible reports whether l was created by an operation that has
// completed, successfully, by the time operation i is issued.
func (c *client) eligible(l liveNode, i int64) bool {
	return l.created <= i-int64(c.w.Depth) && l.n.ok
}

// plan draws operation i from the mix.
func (c *client) plan(i int64) opRec {
	m := c.w.Mix
	total := m.Sibling + m.Chain + m.Revisit + m.Touch + m.Release
	roll := c.rng.Intn(total)
	var parent *node
	revisit := false
	switch {
	case roll < m.Sibling:
		parent = c.anyBase()
	case roll < m.Sibling+m.Chain:
		parent = c.pickLive(i, 0, len(c.live), true)
	case roll < m.Sibling+m.Chain+m.Revisit:
		parent = c.pickLive(i, 0, len(c.live)/2, true)
		revisit = parent.depth > 0
	case roll < m.Sibling+m.Chain+m.Revisit+m.Touch:
		return opRec{kind: opTouch, n: c.pickLive(i, 0, len(c.live), false)}
	default:
		if n := c.takeOldest(i); n != nil {
			return opRec{kind: opRelease, n: n}
		}
		return opRec{kind: opTouch, n: c.anyBase()}
	}
	if len(c.live) >= c.w.Window {
		if c.w.ReleaseAtCap {
			if n := c.takeOldest(i); n != nil {
				return opRec{kind: opRelease, n: n}
			}
		}
		c.live = c.live[1:]
	}
	delta, unsat := c.gens[parent.base].delta()
	child := &node{parent: parent, delta: delta, unsat: parent.unsat || unsat, depth: parent.depth + 1, base: parent.base}
	c.live = append(c.live, liveNode{n: child, created: i, lastUse: i})
	return opRec{kind: opExtend, n: child, revisit: revisit}
}

// pickLive returns a random eligible problem among live[lo:hi] (for an
// extend, one whose chain may still grow), marking it used; a base
// when there is none.
func (c *client) pickLive(i int64, lo, hi int, forExtend bool) *node {
	var cand []int
	for j := lo; j < hi; j++ {
		l := c.live[j]
		if c.eligible(l, i) && (!forExtend || l.n.depth < c.w.MaxDepth) {
			cand = append(cand, j)
		}
	}
	if len(cand) == 0 {
		return c.anyBase()
	}
	j := cand[c.rng.Intn(len(cand))]
	c.live[j].lastUse = i
	return c.live[j].n
}

func (c *client) anyBase() *node { return c.bases[c.rng.Intn(len(c.bases))] }

// takeOldest removes and returns the oldest problem no in-flight
// operation uses.
func (c *client) takeOldest(i int64) *node {
	for j, l := range c.live {
		if c.eligible(l, i) && l.lastUse <= i-int64(c.w.Depth) {
			c.live = append(c.live[:j], c.live[j+1:]...)
			return l.n
		}
	}
	return nil
}

// collect receives replies, times and checks them, and advances the
// completed prefix that gates the issuer.
func (c *client) collect() {
	defer close(c.collected)
	for call := range c.doneCh {
		now := time.Now()
		i := int64(call.Req.ReqID) - 1
		rec := c.ring[i%int64(c.w.Depth)]
		c.completed++
		kind := uint8(call.Req.Op)
		if rec.revisit {
			kind = kindRevisit
		}
		at := now.Sub(c.start)
		c.samples.add(now.Sub(rec.issued).Nanoseconds(), kind, at.Nanoseconds())
		sec := int(at / time.Second)
		for len(c.perSec) <= sec {
			c.perSec = append(c.perSec, 0)
		}
		c.perSec[sec]++
		rt := c.rounds[rec.round]
		if rt == nil {
			rt = &roundTimes{start: rec.issued, left: c.w.RoundOps}
			c.rounds[rec.round] = rt
			if c.tr != nil {
				c.roundSpan[rec.round] = c.tr.addRequest("client.round", -1, rec.issued, rec.issued)
			}
		}
		if rec.issued.Before(rt.start) {
			rt.start = rec.issued
		}
		if now.After(rt.end) {
			rt.end = now
		}
		rt.left--
		if c.tr != nil {
			c.tr.addRequest("client."+call.Req.Op.String(), c.roundSpan[rec.round], rec.issued, now)
			if rt.left == 0 {
				c.tr.setSpan(c.roundSpan[rec.round], rt.start, rt.end)
			}
		}
		if rec.revisit {
			c.revisits++
		}
		var fatal error
		switch {
		case call.Err != nil:
			fatal = fmt.Errorf("request %d (%v): %w", call.Req.ReqID, call.Req.Op, call.Err)
		case call.Resp.Err != "":
			// Every operation names a problem the client holds: a pinned
			// base, or one it created and has not released. The service
			// must accept it; a refusal is a wrong output.
			c.failed++
			what := "refused"
			if strings.Contains(call.Resp.Err, service.ErrEvicted.Error()) || strings.Contains(call.Resp.Err, service.ErrUnknownRef.Error()) {
				what = "lost id"
			}
			c.note(fmt.Sprintf("%s: %v of held id %d (revisit %v) answered %q", what, call.Req.Op, call.Req.ID, rec.revisit, call.Resp.Err))
		case rec.kind == opExtend:
			if len(call.Resp.Results) != 1 {
				c.note(fmt.Sprintf("extend of %d: %d results", call.Req.ID, len(call.Resp.Results)))
				break
			}
			res := call.Resp.Results[0]
			if c.corrupt != nil {
				c.corrupt(rec.n, &res)
			}
			rec.n.id, rec.n.verdict, rec.n.ok = res.ID, res.Verdict, true
			if err := checkExtend(rec.n, res.Verdict, res.Model); err != nil {
				c.note(err.Error())
			}
		}
		c.mu.Lock()
		if fatal != nil && c.fatal == nil {
			c.fatal = fatal
		}
		c.done[i%int64(c.w.Depth)] = true
		for c.done[c.prefix%int64(c.w.Depth)] {
			c.done[c.prefix%int64(c.w.Depth)] = false
			c.prefix++
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

func (c *client) note(msg string) {
	if len(c.checkErrs) < 8 {
		c.checkErrs = append(c.checkErrs, msg)
	} else {
		c.checkErrs[7] = fmt.Sprintf("%s (and more)", msg)
	}
}

// svcEnv is one set-up of a service workload: the service, its optional
// store, the loopback server and the connected clients.
type svcEnv struct {
	svc     *service.Service
	st      *store.Store
	dir     string
	srv     *server
	clients []*client
}

// setupService builds everything a measured phase needs and runs one
// unmeasured warm-up round per connection.
func setupService(w *svcWorkload, seed int64, workDir string) (_ *svcEnv, err error) {
	e := &svcEnv{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	cfg := service.Config{Capacity: w.Capacity}
	if w.Store {
		if e.dir, err = os.MkdirTemp(workDir, "perfbench-store-"); err != nil {
			return nil, err
		}
		if e.st, err = store.Open(e.dir); err != nil {
			return nil, err
		}
		cfg.Store = e.st
	}
	e.svc = service.NewWithConfig(cfg)
	if e.srv, err = startServer(e.svc); err != nil {
		return nil, err
	}
	ctx := context.Background()
	var clis []*wire.Client
	for k := 0; k < w.Conns; k++ {
		cli, err := e.srv.dial()
		if err != nil {
			return nil, err
		}
		clis = append(clis, cli)
		// Registered at once so close() releases it on any later failure.
		e.clients = append(e.clients, &client{cli: cli})
	}
	bases := make([]*node, w.Bases)
	for b := range bases {
		bases[b] = &node{base: b, ok: true}
		if w.Sat.Ratio == 0 {
			continue // the empty root, id 0
		}
		bases[b].delta = newPlanted(w.Sat, baseSeed(seed, b), 0).base()
		res, err := clis[0].ExtendOne(ctx, 0, bases[b].delta)
		if err != nil {
			return nil, fmt.Errorf("base problem: %w", err)
		}
		bases[b].id, bases[b].verdict = res.ID, res.Verdict
		if err := checkExtend(bases[b], res.Verdict, res.Model); err != nil {
			return nil, fmt.Errorf("base problem: %w", err)
		}
		if err := clis[0].Pin(ctx, res.ID); err != nil {
			return nil, fmt.Errorf("pinning base: %w", err)
		}
	}
	for k, cli := range clis {
		gens := make([]*planted, w.Bases)
		for b := range gens {
			gens[b] = newPlanted(w.Sat, baseSeed(seed, b), int64(k+1))
		}
		e.clients[k] = newClient(w, cli, gens, bases, seed*31+int64(k))
	}
	if _, err := e.run(time.Time{}, 1, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// baseSeed derives base b's hidden assignment from the run's seed.
func baseSeed(seed int64, b int) int64 { return seed*1000 + int64(b) }

// phaseResult is one measured phase over every connection.
type phaseResult struct {
	ops, failed, revisits int
	wall                  time.Duration
	lats                  []int64 // ns, a uniform sample of every operation's latency, in completion order
	kinds                 []uint8 // the sampled operations' kinds
	perSec                []int64 // completions in each second of the phase
	rounds                []int64 // ns per round
	checkErrs             []string
	// Sampled from Service.Stats while the phase runs.
	privKiBPerRef, sharedRatio []float64
}

// statsEvery is how often a phase samples the service's footprint.
const statsEvery = 200 * time.Millisecond

// run drives every connection through one phase concurrently.
func (e *svcEnv) run(deadline time.Time, minRounds int, tr *tracer) (phaseResult, error) {
	start := time.Now()
	stop := make(chan struct{})
	sampled := make(chan [2][]float64)
	go func() {
		var priv, shared []float64
		tick := time.NewTicker(statsEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				st := e.svc.Stats()
				priv = append(priv, float64(st.PrivateBytes)/1024/float64(st.Refs))
				shared = append(shared, st.SharedRatio())
			case <-stop:
				st := e.svc.Stats()
				priv = append(priv, float64(st.PrivateBytes)/1024/float64(st.Refs))
				shared = append(shared, st.SharedRatio())
				sampled <- [2][]float64{priv, shared}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.phase(start, deadline, minRounds, tr)
		}(c)
	}
	wg.Wait()
	res := phaseResult{wall: time.Since(start)}
	close(stop)
	fp := <-sampled
	res.privKiBPerRef, res.sharedRatio = fp[0], fp[1]
	for _, c := range e.clients {
		if c.fatal != nil {
			return res, c.fatal
		}
		res.ops += c.completed
		res.failed += c.failed
		res.revisits += c.revisits
		for i, n := range c.perSec {
			for len(res.perSec) <= i {
				res.perSec = append(res.perSec, 0)
			}
			res.perSec[i] += n
		}
		for _, rt := range c.rounds {
			res.rounds = append(res.rounds, rt.end.Sub(rt.start).Nanoseconds())
		}
		res.checkErrs = append(res.checkErrs, c.checkErrs...)
	}
	res.lats, res.kinds = merged(e.clients)
	return res, nil
}

// close tears the set-up down in dependency order and reports anything
// left behind: live snapshots, an unclosable store, an undeletable
// directory.
func (e *svcEnv) close() error {
	var errs []error
	for _, c := range e.clients {
		c.cli.Close()
	}
	if e.srv != nil {
		e.srv.close()
	}
	if e.svc != nil {
		e.svc.Close()
		if n := e.svc.LiveSnapshots(); n != 0 {
			errs = append(errs, fmt.Errorf("service closed with %d live snapshots", n))
		}
	}
	if e.st != nil {
		if err := e.st.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing store: %w", err))
		}
	}
	if e.dir != "" {
		if err := os.RemoveAll(e.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// kindRevisit marks a sampled revisit; other kinds are the wire.Op.
const kindRevisit = 255

func kindName(k uint8) string {
	if k == kindRevisit {
		return "revisit"
	}
	return wire.Op(k).String()
}

// reservoirCap bounds the latencies a connection keeps per phase.
const reservoirCap = 1 << 17

// reservoir keeps a uniform random sample of at most reservoirCap
// latencies (Vitter's algorithm R), so a run's memory does not grow
// with the program's throughput.
type reservoir struct {
	rng  *rand.Rand
	n    int64
	lat  []int64
	kind []uint8
	at   []int64 // completion, ns from the phase's start
}

func newReservoir(seed int64) *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(lat int64, kind uint8, at int64) {
	r.n++
	if len(r.lat) < reservoirCap {
		r.lat = append(r.lat, lat)
		r.kind = append(r.kind, kind)
		r.at = append(r.at, at)
		return
	}
	if j := r.rng.Int63n(r.n); j < reservoirCap {
		r.lat[j], r.kind[j], r.at[j] = lat, kind, at
	}
}

// merged returns the samples of every connection in completion order.
func merged(clients []*client) (lats []int64, kinds []uint8) {
	var idx []struct {
		r *reservoir
		i int
	}
	for _, c := range clients {
		for i := range c.samples.lat {
			idx = append(idx, struct {
				r *reservoir
				i int
			}{c.samples, i})
		}
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a].r.at[idx[a].i] < idx[b].r.at[idx[b].i] })
	for _, x := range idx {
		lats = append(lats, x.r.lat[x.i])
		kinds = append(kinds, x.r.kind[x.i])
	}
	return lats, kinds
}
