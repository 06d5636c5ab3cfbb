package obs

import (
	"strings"
	"testing"
	"time"
)

func TestNilTraceAndOpAreSafe(t *testing.T) {
	var qt *QueryTrace
	op := qt.Linef("scan %s", "docs")
	if op != nil {
		t.Fatal("nil trace should hand back a nil op")
	}
	qt.Plainf("  filter")
	op.Observe(time.Millisecond)
	op.AddSince(time.Now())
	op.AddRows(5)
	if op.Rows() != 0 || op.Elapsed() != 0 || op.Touched() {
		t.Error("nil op must record nothing")
	}
	if qt.Text() != "" || qt.Render(true) != "" || qt.Operators() != nil || qt.Timing() {
		t.Error("nil trace must render nothing")
	}
}

func TestTraceTextMatchesPlainExplain(t *testing.T) {
	qt := NewQueryTrace(false)
	if op := qt.Linef("scan docs as d: sequential"); op != nil {
		t.Error("timing off should not allocate operators")
	}
	qt.Plainf("  filter d.db = 'x'")
	want := "scan docs as d: sequential\n  filter d.db = 'x'"
	if got := qt.Text(); got != want {
		t.Errorf("Text() = %q, want %q", got, want)
	}
	// Render(true) on a timing-off trace degrades to the plain text.
	if got := qt.Render(true); got != want {
		t.Errorf("Render(true) = %q, want %q", got, want)
	}
}

func TestTraceRenderActuals(t *testing.T) {
	qt := NewQueryTrace(true)
	scan := qt.Linef("scan docs as d: sequential")
	idle := qt.Linef("join paths as p: hash join (1 keys)")
	if scan == nil || idle == nil {
		t.Fatal("timing on should allocate operators")
	}
	scan.AddRows(1)
	scan.Observe(1500 * time.Microsecond)
	scan.Observe(500 * time.Microsecond) // exhausted stream

	out := qt.Render(true)
	if !strings.Contains(out, "scan docs as d: sequential (actual rows=1 time=2ms)") {
		t.Errorf("render = %q", out)
	}
	// The join never executed: its line renders without actuals.
	if strings.Contains(out, "hash join (1 keys) (actual") {
		t.Errorf("untouched op rendered actuals: %q", out)
	}
	// Render(false) strips actuals entirely.
	if strings.Contains(qt.Render(false), "actual") {
		t.Error("Render(false) leaked actuals")
	}

	ops := qt.Operators()
	if len(ops) != 1 || ops[0].Op != "scan docs as d: sequential" ||
		ops[0].Rows != 1 || ops[0].TimeMS != 2.0 {
		t.Errorf("operators = %+v", ops)
	}
}

func TestOpStatsAccumulates(t *testing.T) {
	var op OpStats
	op.AddRows(3)
	op.ObserveBatch(1, time.Millisecond)
	start := time.Now().Add(-time.Millisecond)
	op.AddSince(start)
	if op.Rows() != 4 {
		t.Errorf("rows = %d, want 4", op.Rows())
	}
	if op.Elapsed() < 2*time.Millisecond {
		t.Errorf("elapsed = %s, want >= 2ms", op.Elapsed())
	}
	if !op.Touched() {
		t.Error("op should be touched")
	}
	// A zero start is ignored (the untimed access-path case).
	before := op.Elapsed()
	op.AddSince(time.Time{})
	if op.Elapsed() != before {
		t.Error("zero start should be a no-op")
	}
}
