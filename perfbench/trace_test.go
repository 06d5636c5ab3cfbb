package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past root
		{ID: 4, Parent: 2, Name: "b1", Start: 25 * ms, End: 35 * ms},
		{ID: 5, Parent: 2, Name: "b2", Start: 30 * ms, End: 40 * ms},
		{ID: 6, Parent: -1, Name: "other", Start: 0, End: 5 * ms},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		100*ms - 40*ms - 10*ms, // children cover 10..50 and 90..100
		20 * ms,
		30*ms - 15*ms, // b1 and b2 cover 25..40
		30 * ms,
		10 * ms,
		10 * ms,
		5 * ms,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimesRejectsOpenSpan(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, -1, "root")
	tr.begin(0, root, "open")
	tr.end(root)
	if _, err := selfTimes(tr.snapshot()); err == nil {
		t.Fatal("an unended span was accepted")
	}
}

// The self times of a request's spans add up to its root span.
func TestSelfTimesCoverRoot(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, -1, "request")
	tr.timed(7, root, "server.roundtrip", func() { time.Sleep(time.Millisecond) })
	core := tr.begin(7, root, "core.query")
	tr.timed(7, core, "sql.exec", func() { time.Sleep(time.Millisecond) })
	tr.end(core)
	tr.end(root)
	spans := tr.snapshot()
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != spans[root].dur() {
		t.Fatalf("self times sum to %v, root span is %v", sum, spans[root].dur())
	}
}

func TestRequestCoverage(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Req: 0, Name: "request", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Req: 0, Name: "server.roundtrip", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Req: 0, Name: "core.query", Start: 40 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Req: 0, Name: "sql.exec", Start: 50 * ms, End: 80 * ms},
		{ID: 4, Parent: -1, Req: 1, Name: "request", Start: 100 * ms, End: 110 * ms},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	cover, err := requestCoverage(spans, self)
	if err != nil {
		t.Fatal(err)
	}
	if cover[0] != 0.8 || cover[1] != 0 {
		t.Fatalf("coverage %v, want 0.8 for request 0 and 0 for request 1", cover)
	}

	// Overlapping children would count the same time twice.
	spans[2].Start = 30 * ms
	self, err = selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := requestCoverage(spans, self); err == nil {
		t.Fatal("overlapping spans were accepted")
	}
}
