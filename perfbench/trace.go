package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer: its name,
// start and end (ns since the tracer started), the span that caused
// it, and the request it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. Spans are recorded only from this benchmark's own
// files, around calls into each layer's public functions.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	tr    *tracer
	s     span
	start time.Time
}

// newReq returns a fresh request ID.
func (t *tracer) newReq() int64 { return t.reqs.Add(1) }

// start opens a span under parent (0 = root) for request req.
func (t *tracer) start(name string, parent *openSpan, req int64) *openSpan {
	now := time.Now()
	o := &openSpan{tr: t, start: now, s: span{ID: t.ids.Add(1), Req: req, Name: name, Start: int64(now.Sub(t.t0))}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	return o
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	now := time.Now()
	o.s.End = int64(now.Sub(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
	return now.Sub(o.start)
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent *openSpan, req int64, fn func(sp *openSpan)) time.Duration {
	sp := t.start(name, parent, req)
	fn(sp)
	return sp.end()
}

// layerTime is one span name's totals.
type layerTime struct {
	name       string
	count      int
	total, own time.Duration
}

// selfTimes aggregates per span name the total time and the self time:
// each span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			agg[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.count++
		lt.total += d
		lt.own += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].own > out[j].own })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// printSelfTimes prints the per-layer self-time table.
func (t *tracer) printSelfTimes() {
	fmt.Fprintf(stdout, "  # %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(stdout, "  # %-28s %8d %12.3f %12.3f\n", lt.name, lt.count,
			float64(lt.total)/1e6, float64(lt.own)/1e6)
	}
}

// write stores every span as one JSON line.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	fmt.Fprintf(stdout, "  # wrote %d spans to %s\n", n, path)
	return nil
}
