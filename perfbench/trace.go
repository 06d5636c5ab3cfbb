package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one request share Req; Parent is
// the id of the enclosing span, or -1 for a request's root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run shares the code path at the cost of a
// nil check.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span id; a span already closed keeps its end.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base)
	t.mu.Lock()
	if t.spans[id].End < 0 {
		t.spans[id].End = now
	}
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(req, parent int, name string, fn func()) {
	id := t.begin(req, parent, name)
	fn()
	t.end(id)
}

// get returns the span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover; overlapping children count once, and the
// parts of a child outside its parent do not count.
func selfTimes(spans []span) ([]time.Duration, error) {
	kids := make([][]span, len(spans))
	for i, s := range spans {
		if s.ID != i {
			return nil, fmt.Errorf("span %d stored at index %d", s.ID, i)
		}
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self, nil
}

// requestCoverage checks, for every request, that the self times of its
// spans add up to its root span's duration, so that the spans account
// for the request's whole wall time once, and returns per request the
// share of that time its root's descendants cover.
func requestCoverage(spans []span, self []time.Duration) (map[int]float64, error) {
	sum := map[int]time.Duration{}
	root := map[int]int{}
	for i, s := range spans {
		sum[s.Req] += self[i]
		if s.Parent < 0 {
			if _, dup := root[s.Req]; dup {
				return nil, fmt.Errorf("request %d has two root spans", s.Req)
			}
			root[s.Req] = i
		}
	}
	cover := make(map[int]float64, len(root))
	for req, total := range sum {
		i, ok := root[req]
		if !ok {
			return nil, fmt.Errorf("request %d has no root span", req)
		}
		if d := spans[i].dur(); total != d {
			return nil, fmt.Errorf("request %d: self times add up to %v, its root span lasts %v", req, total, d)
		}
		cover[req] = 1
		if d := spans[i].dur(); d > 0 {
			cover[req] = 1 - float64(self[i])/float64(d)
		}
	}
	return cover, nil
}
