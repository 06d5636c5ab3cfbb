// Command perfbench is the repository's end-to-end benchmark. It builds
// a warehouse from a seeded synthetic corpus of the paper's three
// databases (1000 ENZYME, EMBL and Swiss-Prot entries each) on the
// default engine configuration, serves it with internal/server on a
// loopback port, drives one workload over HTTP from this process,
// checks every answer and prints the result as one JSON line. Run it
// from the repository root with
//
//	bash perfbench/run.sh --workload paper-queries --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - paper-queries: the Fig. 8, Fig. 9 and Fig. 11 query texts, each in
//     its own closed-loop phase with one client.
//   - lookup-stream: an open loop at a fixed rate of point lookups,
//     sub-tree and keyword searches and a few shapes only the native
//     evaluator answers, drawn from corpus values.
//   - update-then-read: incremental ENZYME versions applied with
//     UpdateContext, each followed by reads checked against it.
//   - update-under-read: the same versions applied while a closed-loop
//     reader queries the same database; each answer must match a
//     version committed before or after the update in flight.
//
// With --trace 0 the last line carries the gated end-to-end metrics
// every workload reports: setup_s, op1..op3_p50_ms (medians of the
// workload's three operation classes), ok_ratio, space_amp and
// heap_peak_mb. The line before it is the workload's report: the named
// metrics (fig8_p50_ms, lookup_p99_ms, update_p50_ms, ...) with sample
// counts, run notes and the first failures. Tail percentiles are
// reported there but not gated: on a shared two-CPU machine whose speed
// drifts from run to run, they spread by more than a gate can bound. With --trace 1 the run
// replays the request sequence one request at a time, records spans
// around the calls into each layer and reports per-layer metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"xomatiq/internal/benchutil"
	"xomatiq/internal/core"
)

// options are the settings of one run. The corpus sizes and set-up count
// are fixed in main; the self-test sets them directly to run on a tiny
// corpus.
//
// --seed drives everything a workload sends: request sequences, search
// terms, looked-up ids and update versions. The corpus comes from
// --corpus-seed, fixed by default, because Fig. 8's answer is the cross
// product of the cdc6 entries of two databases and its size, and with it
// Fig. 8's latency, swings by about a third between corpus seeds.
type options struct {
	workload   string
	seed       int64
	corpusSeed int64
	seconds    int
	trace      bool
	dir        string
	nEnzyme    int
	nEMBL      int
	nSProt     int
	setups     int
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is one report entry: a value with its unit and, for
// percentiles, the sample count and the percentile actually reported.
type named struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one run shares between set-up and its workload.
type bench struct {
	o     options
	w     *warehouse
	flats *benchutil.Flats
	orc   *oracle

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // the first few failure texts

	e2e    map[string]metric // the gated end-to-end metrics
	report map[string]named  // named per-workload metrics with sample counts
	layers map[string]metric // per-layer metrics (traced run)
	notes  map[string]any    // run facts: lateness, backlog, versions
}

// done records one operation's outcome.
func (b *bench) done(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 5 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// put stores a report entry without a sample count.
func (b *bench) put(name string, v float64, unit string) {
	b.report[name] = named{Value: v, Unit: unit}
}

// putDist stores a latency distribution as <prefix>_p50_ms and
// <prefix>_p99_ms, the latter at the highest percentile d supports.
func (b *bench) putDist(prefix string, d dist) {
	b.report[prefix+"_p50_ms"] = named{Value: d.P50, Unit: "ms", Samples: d.N, Percentile: 50}
	b.report[prefix+"_p99_ms"] = named{Value: d.Tail, Unit: "ms", Samples: d.N, Percentile: d.TailPct}
}

// putOps stores the gated op1..op3_p50_ms of a workload's three
// operation classes, and each one's per-round medians in the notes.
func (b *bench) putOps(ops ...*series) {
	for i, s := range ops {
		name := fmt.Sprintf("op%d", i+1)
		b.e2e[name+"_p50_ms"] = metric{s.p50(), "ms"}
		b.notes[name+"_round_p50_ms"] = s.roundP50s()
	}
}

type workload struct {
	name  string
	run   func(ctx context.Context, b *bench) error
	trace func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"paper-queries", runPaper, tracePaper},
	{"lookup-stream", runLookup, traceLookup},
	{"update-then-read", runUpdateThenRead, traceUpdate},
	{"update-under-read", runUpdateUnderRead, traceUpdate},
}

// endToEnd lists the gated metrics every workload reports with tracing
// off, in BENCHMARK.json order. op1..op3 are the workload's three
// operation classes (the report names them).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op1_p50_ms", "ms"},
	{"op2_p50_ms", "ms"},
	{"op3_p50_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"space_amp", "ratio"},
	{"heap_peak_mb", "MiB"},
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed for request sequences, terms and update versions")
	flag.Int64Var(&o.corpusSeed, "corpus-seed", 1, "seed for the generated corpus")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for warehouses and traces")
	flag.Parse()
	// The paper-size corpus, and three set-ups per run: setup_s is their
	// median.
	o.nEnzyme, o.nEMBL, o.nSProt, o.setups = 1000, 1000, 1000, 3
	o.trace = traceFlag == 1
	os.Exit(mainRun(o, os.Stdout))
}

// mainRun runs one benchmark invocation and returns the exit code.
func mainRun(o options, out io.Writer) int {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || o.seconds < 1 || o.setups < 1 || o.nEnzyme < 1 || o.nEMBL < 1 || o.nSProt < 1 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and positive sizes\n", strings.Join(names, ", "))
		return 2
	}
	b := &bench{
		o:   o,
		e2e: map[string]metric{}, report: map[string]named{},
		layers: map[string]metric{}, notes: map[string]any{},
	}
	emit(out, map[string]any{"provenance": provenance(o)})
	err := b.execute(wl)
	res := result{Metrics: map[string]metric{}}
	b.mu.Lock()
	res.Attempted, res.Failed = b.attempted, b.failed
	failures := b.failures
	b.mu.Unlock()
	if err != nil {
		// A set-up or harness failure is one failed operation with its
		// text; no metric is reported for it.
		res.Attempted++
		res.Failed++
		emit(out, map[string]any{"workload": o.workload, "error": err.Error()})
		emit(out, res)
		return 1
	}
	if o.trace {
		res.Metrics = b.layers
	} else {
		res.Metrics = b.e2e
	}
	res.Correct = res.Failed == 0
	emit(out, map[string]any{"workload": o.workload, "report": b.report, "notes": b.notes, "failures": failures})
	emit(out, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute sets up, runs the workload and tears down.
func (b *bench) execute(wl *workload) (err error) {
	o := b.o
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	// Set up several times: setup_s and load_docs_per_s are medians, and
	// the last warehouse is the one the workload runs on.
	var totals, rates []float64
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		w, flats, st, err := buildWarehouse(filepath.Join(runDir, fmt.Sprintf("wh%d", i)), o)
		if err != nil {
			return err
		}
		totals = append(totals, st.total.Seconds())
		rates = append(rates, float64(st.docs)/st.harness.Seconds())
		if i < o.setups-1 {
			if err := w.close(); err != nil {
				return err
			}
			continue
		}
		b.w, b.flats = w, flats
	}
	defer func() {
		if cerr := b.w.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tear down: %w", cerr)
		}
	}()
	b.e2e["setup_s"] = metric{median(totals), "s"}
	b.report["setup_s"] = named{Value: median(totals), Unit: "s", Samples: len(totals)}
	b.report["load_docs_per_s"] = named{Value: median(rates), Unit: "docs/s", Samples: len(rates)}

	corpus, err := benchutil.Corpus(b.flats)
	if err != nil {
		return fmt.Errorf("oracle corpus: %w", err)
	}
	b.orc = newOracle(corpus)
	if err := b.w.serve(); err != nil {
		return err
	}

	ctx := context.Background()
	if o.trace {
		return wl.trace(ctx, b)
	}
	if err := wl.run(ctx, b); err != nil {
		return err
	}
	// The update workloads take space_amp after a fixed number of
	// versions; the read-only ones leave the warehouse as set up.
	if _, ok := b.e2e["space_amp"]; !ok {
		if err := b.recordSpace(); err != nil {
			return err
		}
	}
	b.mu.Lock()
	failedRatio := 0.0
	if b.attempted > 0 {
		failedRatio = float64(b.failed) / float64(b.attempted)
	}
	b.mu.Unlock()
	b.put("ops_failed_ratio", failedRatio, "ratio")
	for _, m := range endToEnd {
		if _, ok := b.e2e[m.name]; !ok {
			return fmt.Errorf("workload %s did not report %s", wl.name, m.name)
		}
	}
	return nil
}

// recordSpace reports space_amp: the warehouse's file bytes (data file
// and WAL) divided by the bytes of the flat files it was built from.
func (b *bench) recordSpace() error {
	fb, err := b.w.fileBytes()
	if err != nil {
		return err
	}
	flatBytes := len(b.flats.Enzyme) + len(b.flats.EMBL) + len(b.flats.SProt)
	amp := float64(fb) / float64(flatBytes)
	b.e2e["space_amp"] = metric{amp, "ratio"}
	b.put("space_amp", amp, "ratio")
	return nil
}

// measure runs fn, the timed part of a workload, while sampling the
// live heap every 20 ms. heap_peak_mb is the median over the run's
// rounds (equal slices of --seconds) of each round's peak, so one
// collection cycle landing late does not decide it.
func (b *bench) measure(fn func()) {
	window := time.Duration(b.o.seconds) * time.Second / rounds
	// Every expected answer is prepared by now. Dropping the oracle's
	// parsed corpus keeps the collector from tracing it while timing, so
	// the benchmark's own memory does not add to the program's latency.
	b.orc = nil
	// Start from a collected heap, so garbage from preparing the requests
	// and their expected answers is not collected while timing.
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peaks []float64
		var peak uint64
		next := time.Now().Add(window)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if time.Now().After(next) {
				peaks = append(peaks, float64(peak)/(1<<20))
				peak, next = 0, next.Add(window)
			}
			select {
			case <-stop:
				done <- append(peaks, float64(peak)/(1<<20))
				return
			case <-t.C:
			}
		}
	}()
	fn()
	close(stop)
	peaks := <-done
	b.e2e["heap_peak_mb"] = metric{median(peaks), "MiB"}
	b.put("heap_peak_mb", median(peaks), "MiB")
}

// emit writes one JSON line.
func emit(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "%s\n", data)
}

// provenance describes the machine, build and settings of a run.
func provenance(o options) map[string]any {
	return map[string]any{
		"commit":        commit(),
		"source_sha256": sourceHash("."),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"seed":          o.seed,
		"corpus_seed":   o.corpusSeed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"corpus":        map[string]int{"enzyme": o.nEnzyme, "embl": o.nEMBL, "sprot": o.nSProt},
		"setups":        o.setups,
		"pool_pages":    4096,
		"plan_cache":    core.DefaultPlanCacheSize,
		"flush_policy":  "durable: WAL fsync on every commit",
		"clients":       clientsOf(o.workload),
		"rate_per_s":    rateOf(o.workload),
	}
}

func clientsOf(workload string) string {
	switch workload {
	case "paper-queries":
		return "1 closed-loop HTTP client"
	case "lookup-stream":
		return "open loop from one generator over at most 2 connections"
	case "update-under-read":
		return "1 writer (UpdateContext) + 1 closed-loop HTTP reader"
	}
	return ""
}

func rateOf(workload string) int {
	if workload == "lookup-stream" {
		return lookupRate
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// sourceHash identifies the code under test also where no VCS metadata
// is available: a SHA-256 over the Go sources and module files below
// root.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errWrong marks an answer that differs from the expected one.
var errWrong = errors.New("wrong answer")
