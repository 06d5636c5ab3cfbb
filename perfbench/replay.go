package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xomatiq/internal/core"
	"xomatiq/internal/obs"
	"xomatiq/internal/sql"
	"xomatiq/internal/xq"
	"xomatiq/internal/xq2sql"
)

// request is one query of a workload's sequence with its check.
type request struct {
	class string
	text  string
	check func(answer) error
}

// replayPlan is the benchmark's own copy of what the engine's plan
// cache holds for a query text.
type replayPlan struct {
	native bool
	sel    *sql.Select
	tr     *xq2sql.Translation
}

// queryRec is what the traced run learned about one query.
type queryRec struct {
	req       int
	class     string
	rt, core  time.Duration
	wall      time.Duration // the whole traced request
	respBytes int
	sqlBytes  int // translated SQL text, on a plan-cache miss
	hits      uint64
	misses    uint64
	native    bool
	rows      int
	reg       obs.RegistrySnapshot // counter deltas of the round trip
}

// updateRec is what the traced run learned about one update.
type updateRec struct {
	update     time.Duration // UpdateContext
	hounds     time.Duration // TransformAndValidate + DiffDocs on the same dump
	fileGrowth int
	reg        obs.RegistrySnapshot
}

// tracedRun replays requests one at a time: each goes over HTTP as in
// the untraced run, with counter deltas taken around the round trip,
// and is then replayed in-process through each layer's public function
// on a pinned snapshot, with a span around every call. The replay
// stands in for the server-side work, which the benchmark cannot see
// inside: server.overhead is the round trip minus the replayed core
// span. Untraced requests, sent between the traced ones, give the
// tracing overhead.
type tracedRun struct {
	b       *bench
	tr      *tracer
	sess    *core.Session
	plans   map[string]*replayPlan
	nreq    int
	queries []queryRec
	updates []updateRec
	invals  uint64          // plan-cache invalidations over the traced requests
	plainRT []time.Duration // round trips of the untraced requests
}

func newTracedRun(ctx context.Context, b *bench) (*tracedRun, error) {
	sess, err := b.w.eng.NewSession(ctx, core.WithSessionTag("perfbench-replay"))
	if err != nil {
		return nil, err
	}
	return &tracedRun{b: b, tr: newTracer(), sess: sess, plans: map[string]*replayPlan{}}, nil
}

func (t *tracedRun) close() { t.sess.Close() }

// plan replays the front end on a plan-cache miss: xq.Parse,
// xq2sql.Translate (with the engine's default keyword prefilter) and
// sql.Parse, each in a span under parent.
func (t *tracedRun) plan(tr *tracer, req, parent int, text string) (*replayPlan, error) {
	var q *xq.Query
	var err error
	tr.timed(req, parent, "xq.parse", func() { q, err = xq.Parse(text) })
	if err != nil {
		return nil, err
	}
	var trans *xq2sql.Translation
	tr.timed(req, parent, "xq2sql.translate", func() {
		trans, err = xq2sql.Translate(t.b.w.eng.Store(), q, xq2sql.Options{UseKeywordIndex: true})
	})
	if errors.Is(err, xq2sql.ErrUnsupported) {
		return &replayPlan{native: true}, nil
	}
	if err != nil {
		return nil, err
	}
	var stmt sql.Statement
	tr.timed(req, parent, "sql.parse", func() { stmt, err = sql.Parse(trans.SQL) })
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("translated SQL is not a SELECT")
	}
	return &replayPlan{sel: sel, tr: trans}, nil
}

// plain sends one request untraced and records its round trip.
func (t *tracedRun) plain(ctx context.Context, r request) {
	start := time.Now()
	rep, err := t.b.w.query(ctx, r.text)
	t.plainRT = append(t.plainRT, time.Since(start))
	if err == nil {
		err = r.check(answerOf(len(rep.res.Columns), rep.res.Rows))
	}
	t.b.done(err)
}

// query sends one request with counter deltas around the round trip and
// replays it with spans.
func (t *tracedRun) query(ctx context.Context, r request) error {
	b := t.b
	eng := b.w.eng
	req := t.nreq
	t.nreq++
	root := t.tr.begin(req, -1, "request")
	defer t.tr.end(root)

	s0, err := eng.Snapshot()
	if err != nil {
		return err
	}
	r0 := eng.Registry().Snapshot()
	rtID := t.tr.begin(req, root, "server.roundtrip")
	rep, qerr := b.w.query(ctx, r.text)
	t.tr.end(rtID)
	r1 := eng.Registry().Snapshot()
	s1, err := eng.Snapshot()
	if err != nil {
		return err
	}
	if qerr == nil {
		qerr = r.check(answerOf(len(rep.res.Columns), rep.res.Rows))
	}
	b.done(qerr)
	if qerr != nil {
		return nil
	}
	rec := queryRec{
		req: req, class: r.class, respBytes: rep.bytes, rows: len(rep.res.Rows),
		hits:   s1.PlanCache.Hits - s0.PlanCache.Hits,
		misses: s1.PlanCache.Misses - s0.PlanCache.Misses,
		native: rep.res.Mode == core.ModeNative,
		reg:    regDelta(r0, r1),
	}
	t.invals += s1.PlanCache.Invalidations - s0.PlanCache.Invalidations

	p := t.plans[r.text]
	if p == nil && rec.misses == 0 {
		// The server answered from its plan cache, filled before tracing
		// began; build the replay's copy outside any span.
		if p, err = t.plan(nil, req, -1, r.text); err != nil {
			return err
		}
	}
	coreID := t.tr.begin(req, root, "core.query")
	if p == nil || rec.misses > 0 {
		if p, err = t.plan(t.tr, req, coreID, r.text); err != nil {
			t.tr.end(coreID)
			return err
		}
		if !p.native {
			rec.sqlBytes = len(p.tr.SQL)
		}
	}
	t.plans[r.text] = p
	if p.native {
		t.tr.timed(req, coreID, "core.native", func() { _, err = t.sess.Query(ctx, r.text) })
	} else {
		err = t.execSQL(ctx, req, coreID, p)
	}
	t.tr.end(coreID)
	if err != nil {
		return fmt.Errorf("replay %s: %w", r.class, err)
	}
	rec.rt = t.tr.get(rtID).dur()
	rec.core = t.tr.get(coreID).dur()
	t.tr.end(root)
	rec.wall = t.tr.get(root).dur()
	t.queries = append(t.queries, rec)
	return nil
}

// execSQL replays the executor on a pinned snapshot, then the row
// stringify and the JSON encoding the server performs.
func (t *tracedRun) execSQL(ctx context.Context, req, parent int, p *replayPlan) error {
	db := t.b.w.eng.DB()
	var rows *sql.Rows
	var err error
	t.tr.timed(req, parent, "sql.exec", func() {
		snap := db.AcquireSnapshot()
		defer db.ReleaseSnapshot(snap)
		rows, err = db.QueryStmtOptsContext(ctx, p.sel, sql.ExecOpts{Snap: snap})
	})
	if err != nil {
		return err
	}
	res := &core.Result{Columns: p.tr.Columns, Mode: core.ModeSQL, SQL: p.tr.SQL}
	t.tr.timed(req, parent, "core.stringify", func() {
		res.Rows = make([][]string, 0, len(rows.Rows))
		for _, tup := range rows.Rows {
			row := make([]string, len(tup))
			for i, v := range tup {
				row[i] = v.String()
			}
			res.Rows = append(res.Rows, row)
		}
	})
	t.tr.timed(req, parent, "core.json", func() { _ = res.JSON() })
	return nil
}

// phase is one part of a traced sequence: it returns the phase's i-th
// request, or false when the phase has no more.
type phase func(i int) (request, bool)

// traceSequence runs the phases one request at a time, each for an equal
// share of the run, and reports the per-layer metrics. Requests alternate
// between traced (even i) and untraced (odd i), so both kinds meet the
// same plan-cache state and the same request mix.
func (b *bench) traceSequence(ctx context.Context, phases []phase) error {
	t, err := newTracedRun(ctx, b)
	if err != nil {
		return err
	}
	defer t.close()
	share := time.Duration(b.o.seconds) * time.Second / time.Duration(len(phases))
	for _, ph := range phases {
		end := time.Now().Add(share)
		for i := 0; time.Now().Before(end); i++ {
			r, ok := ph(i)
			if !ok {
				break
			}
			if i%2 == 1 {
				t.plain(ctx, r)
				continue
			}
			if err := t.query(ctx, r); err != nil {
				return err
			}
		}
	}
	return t.finish()
}

// finish turns spans and counter deltas into the per-layer metrics and
// writes the spans to the run directory.
func (t *tracedRun) finish() error {
	b := t.b
	spans := t.tr.snapshot()
	self, err := selfTimes(spans)
	if err != nil {
		return err
	}
	cover, err := requestCoverage(spans, self)
	if err != nil {
		return err
	}
	path := filepath.Join(b.o.dir, fmt.Sprintf("trace-%s-seed%d.jsonl", b.o.workload, b.o.seed))
	if err := t.tr.write(path); err != nil {
		return err
	}
	b.notes["trace_file"] = path

	// Mean self time per span name, and per request class for the executor.
	classOf := map[int]string{}
	for _, q := range t.queries {
		classOf[q.req] = q.class
	}
	sum := map[string]time.Duration{}
	cnt := map[string]int{}
	for i, s := range spans {
		sum[s.Name] += self[i]
		cnt[s.Name]++
		if s.Name == "sql.exec" && classOf[s.Req] != "" {
			k := "sql.exec." + classOf[s.Req]
			sum[k] += self[i]
			cnt[k]++
		}
	}
	meanMS := func(name string) float64 {
		if cnt[name] == 0 {
			return 0
		}
		return ms(sum[name]) / float64(cnt[name])
	}
	put := func(name string, v float64, unit string) { b.layers[name] = metric{v, unit} }

	var overhead, covered, traced []float64
	var respBytes, sqlBytes, sqlMisses int
	var hits, misses, native uint64
	var reg obs.RegistrySnapshot
	var sqlRows, examined uint64
	for _, q := range t.queries {
		overhead = append(overhead, ms(q.rt-q.core))
		covered = append(covered, cover[q.req])
		traced = append(traced, ms(q.wall))
		respBytes += q.respBytes
		if q.sqlBytes > 0 {
			sqlBytes += q.sqlBytes
			sqlMisses++
		}
		hits += q.hits
		misses += q.misses
		if q.native {
			native++
		} else {
			sqlRows += uint64(q.rows)
			examined += q.reg.Heap.RecordsScanned + q.reg.Index.BTreeSearches
		}
		reg = regAdd(reg, q.reg)
	}
	nq := float64(max(len(t.queries), 1))
	put("server.overhead_ms", median(overhead), "ms")
	put("server.resp_bytes", float64(respBytes)/nq, "bytes")
	put("core.plancache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	put("core.native_share", float64(native)/nq, "ratio")
	put("core.self_ms", meanMS("core.query"), "ms")
	put("core.stringify_ms", meanMS("core.stringify"), "ms")
	put("core.json_ms", meanMS("core.json"), "ms")
	put("core.native_ms", meanMS("core.native"), "ms")
	put("xq.parse_us", 1000*meanMS("xq.parse"), "us")
	put("xq2sql.translate_us", 1000*meanMS("xq2sql.translate"), "us")
	put("xq2sql.sql_bytes", float64(sqlBytes)/float64(max(sqlMisses, 1)), "bytes")
	put("sql.parse_us", 1000*meanMS("sql.parse"), "us")
	put("sql.exec_ms", meanMS("sql.exec"), "ms")
	for _, c := range execClasses {
		put("sql.exec_ms."+c, meanMS("sql.exec."+c), "ms")
	}
	put("sql.examined_per_row", ratio(float64(examined), float64(sqlRows)), "ratio")
	put("bufpool.hit_ratio", ratio(float64(reg.Pool.Hits), float64(reg.Pool.Hits+reg.Pool.Misses)), "ratio")
	put("heap.pages_scanned_per_query", float64(reg.Heap.PagesScanned)/nq, "pages")
	put("index.btree_searches_per_query", float64(reg.Index.BTreeSearches)/nq, "count")

	// Update path.
	nu := float64(max(len(t.updates), 1))
	var ureg obs.RegistrySnapshot
	var pages int
	var apply []float64
	for _, u := range t.updates {
		ureg = regAdd(ureg, u.reg)
		pages += u.fileGrowth
		apply = append(apply, ms(u.update-u.hounds))
	}
	put("core.plancache_invalidations_per_update", float64(t.invals)/nu, "count")
	put("core.update_apply_ms", median(apply), "ms")
	put("hounds.transform_ms", meanMS("hounds.transform"), "ms")
	put("hounds.diff_ms", meanMS("hounds.diff"), "ms")
	put("dtd.validate_ms", meanMS("dtd.validate"), "ms")
	put("sql.analyze_ms", meanMS("sql.analyze"), "ms")
	put("shred.tuples_per_update", float64(ureg.Ingest.Tuples)/nu, "count")
	put("wal.bytes_per_update", float64(ureg.WAL.Bytes)/nu, "bytes")
	put("wal.fsyncs_per_update", float64(ureg.WAL.Fsyncs)/nu, "count")
	put("heap.pages_added_per_update", float64(pages)/nu, "pages")

	// Work on both paths.
	all := regAdd(reg, ureg)
	put("bufpool.evictions", float64(all.Pool.Evictions), "count")
	put("sql.join_spill_bytes", float64(all.Exec.JoinSpillBytes), "bytes")

	// The tracing itself.
	b.notes["trace_spans"] = len(spans)
	b.notes["trace_requests"] = len(t.queries) + len(t.updates)
	// covered_share: the mean share of a traced query's wall time that
	// named layer spans account for; the rest is the tracer's own counter
	// snapshots and bookkeeping. overhead_ms: a traced query's wall time
	// (counter snapshots, round trip and in-process replay) minus an
	// untraced query's round trip, medians over the interleaved requests.
	put("trace.covered_share", mean(covered), "ratio")
	put("trace.overhead_ms", median(traced)-median(msAll(t.plainRT)), "ms")
	b.notes["trace_untraced_requests"] = len(t.plainRT)
	b.notes["trace_classes"] = classCounts(t.queries)
	return nil
}

// execClasses are the query classes whose executor time is reported on
// its own.
var execClasses = []string{"fig8", "fig9", "fig11", "point", "subtree", "keyword"}

func classCounts(qs []queryRec) string {
	m := map[string]int{}
	for _, q := range qs {
		m[q.class]++
	}
	var parts []string
	for k, v := range m {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// regDelta is b minus a for the counters the per-layer metrics use.
func regDelta(a, b obs.RegistrySnapshot) obs.RegistrySnapshot {
	var d obs.RegistrySnapshot
	d.Pool.Hits = b.Pool.Hits - a.Pool.Hits
	d.Pool.Misses = b.Pool.Misses - a.Pool.Misses
	d.Pool.Evictions = b.Pool.Evictions - a.Pool.Evictions
	d.WAL.Bytes = b.WAL.Bytes - a.WAL.Bytes
	d.WAL.Fsyncs = b.WAL.Fsyncs - a.WAL.Fsyncs
	d.Heap.PagesScanned = b.Heap.PagesScanned - a.Heap.PagesScanned
	d.Heap.RecordsScanned = b.Heap.RecordsScanned - a.Heap.RecordsScanned
	d.Index.BTreeSearches = b.Index.BTreeSearches - a.Index.BTreeSearches
	d.Exec.JoinSpillBytes = b.Exec.JoinSpillBytes - a.Exec.JoinSpillBytes
	d.Ingest.Tuples = b.Ingest.Tuples - a.Ingest.Tuples
	return d
}

// regAdd sums the counters regDelta keeps.
func regAdd(a, b obs.RegistrySnapshot) obs.RegistrySnapshot {
	a.Pool.Hits += b.Pool.Hits
	a.Pool.Misses += b.Pool.Misses
	a.Pool.Evictions += b.Pool.Evictions
	a.WAL.Bytes += b.WAL.Bytes
	a.WAL.Fsyncs += b.WAL.Fsyncs
	a.Heap.PagesScanned += b.Heap.PagesScanned
	a.Heap.RecordsScanned += b.Heap.RecordsScanned
	a.Index.BTreeSearches += b.Index.BTreeSearches
	a.Exec.JoinSpillBytes += b.Exec.JoinSpillBytes
	a.Ingest.Tuples += b.Ingest.Tuples
	return a
}
