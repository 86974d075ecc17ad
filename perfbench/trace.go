package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent links
// make the spans of one operation a tree; Root is that tree's identifier.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Root   int32  `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans a run keeps (and writes: about 110 bytes a
// span); a fast workload's traced phase would otherwise hold millions.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int // spans not kept once maxSpans were
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (-1 on a nil tracer).
func (t *tracer) add(name string, parent int32, start, end time.Time) int32 {
	return t.addUpTo(maxSpans, name, parent, start, end)
}

// addRequest records a live-phase request span while the tracer holds
// less than half of maxSpans, leaving room for the replay's spans.
func (t *tracer) addRequest(name string, parent int32, start, end time.Time) int32 {
	return t.addUpTo(maxSpans/2, name, parent, start, end)
}

func (t *tracer) addUpTo(limit int, name string, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= limit {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	root := id
	if parent >= 0 {
		root = t.spans[parent].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// setSpan rewrites a span's interval (a round's extent is known only
// when its last reply arrives).
func (t *tracer) setSpan(id int32, start, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Start, t.spans[id].End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int32, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start)
}

// begin opens a parent span whose children are added while it is open.
func (t *tracer) begin(name string, parent int32) int32 {
	now := time.Now()
	return t.add(name, parent, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// selfTimes sums, per layer (the span name up to its first dot), the
// time each span spent outside the intervals its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	curS, curE := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
		} else if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}

// writeTo writes the spans as JSON lines.
func (t *tracer) writeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeFile writes the spans to path.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeTo(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
