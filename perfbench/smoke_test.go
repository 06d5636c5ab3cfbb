package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every gated workload on a tiny corpus, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	// The gated workloads are BENCHMARK.json's; update-under-read is not
	// among them, because its readers can see an update half applied
	// (UpdateContext commits the deletions before the replacement rows)
	// and such a read fails the check.
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 3, seconds: 2, trace: traced,
				dir: t.TempDir(), nEnzyme: 40, nEMBL: 40, nSProt: 40, setups: 2}
			var out bytes.Buffer
			code := mainRun(o, &out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v\n%s", w.Name, traced, err, out.String())
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: exit %d, %+v\n%s", w.Name, traced, code, res, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// A set-up that fails is reported as one failed operation with its
// error text and no metrics, and the exit code is non-zero.
func TestSetupFailureIsReported(t *testing.T) {
	dir := t.TempDir()
	// A file where the run directory should go makes set-up fail.
	blocker := dir + "/blocked"
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{workload: "paper-queries", seed: 1, seconds: 1, dir: blocker,
		nEnzyme: 5, nEMBL: 5, nSProt: 5, setups: 1}
	var out bytes.Buffer
	if code := mainRun(o, &out); code == 0 {
		t.Fatal("failed set-up exited 0")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 1 || res.Failed != 1 || len(res.Metrics) != 0 {
		t.Fatalf("result %+v", res)
	}
	if !strings.Contains(lines[len(lines)-2], `"error"`) {
		t.Fatalf("no error text before the result: %s", out.String())
	}
}
