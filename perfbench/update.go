package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xomatiq/internal/bio"
	"xomatiq/internal/dtd"
	"xomatiq/internal/hounds"
	"xomatiq/internal/nativexml"
	"xomatiq/internal/xmldoc"
	"xomatiq/internal/xq"
)

// Reader queries of update-under-read: a point lookup, the Fig. 9
// sub-tree search and a NOT shape the native evaluator answers. The
// writer adds "Curated" comments, so the NOT answer moves with every
// version.
const (
	readNotQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE NOT contains($a//comment_list, "curated")
RETURN $a//enzyme_id`
	// allIDsQuery is the point lookup without its filter: evaluated on one
	// document it gives that document's point-lookup answer.
	allIDsQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//enzyme_id, $a//enzyme_description`
)

// Per version, about 1.3% of the 1000-entry dump changes.
const (
	modsPerVersion    = 5
	addsPerVersion    = 4
	removesPerVersion = 4
)

// docAnswers are one entry's rows for each reader query.
type docAnswers struct {
	point, fig9, not [][]string
}

// version is one published ENZYME dump and what a reader may see of it.
type version struct {
	flat                     string
	count                    int
	added, modified, removed []string               // sorted entry ids
	changed                  map[string]string      // id -> expected reconstruction, added and modified
	docs                     map[string]*docAnswers // id -> rows, every entry
	fig9, not                answer
}

// versions holds the seeded version sequence of one run.
type versions struct {
	list []*version // list[0] is the harnessed dump
	ids  []string   // every id any version holds
	q    struct{ point, fig9, not *xq.Query }
}

// buildVersions parses the harnessed dump and derives n successive
// versions from it, each modifying, adding and removing a few entries.
// Answers per version are assembled from per-entry native evaluations,
// which is exact for these single-binding queries; version 0 is checked
// against whole-corpus evaluation to prove it.
func (b *bench) buildVersions(n int) (*versions, error) {
	vs := &versions{}
	var err error
	for _, p := range []struct {
		dst  **xq.Query
		text string
	}{{&vs.q.point, allIDsQuery}, {&vs.q.fig9, figures[1].text}, {&vs.q.not, readNotQuery}} {
		if *p.dst, err = xq.Parse(p.text); err != nil {
			return nil, err
		}
	}
	entries, err := bio.ParseEnzyme(strings.NewReader(b.flats.Enzyme))
	if err != nil {
		return nil, err
	}
	v0 := &version{flat: b.flats.Enzyme, count: len(entries), docs: map[string]*docAnswers{}}
	if err := vs.evalEntries(entries, v0); err != nil {
		return nil, err
	}
	vs.finish(v0)
	for _, check := range []struct {
		text string
		got  answer
	}{{figures[1].text, v0.fig9}, {readNotQuery, v0.not}} {
		want, err := b.orc.expect(check.text)
		if err != nil {
			return nil, err
		}
		if !want.equal(check.got) {
			return nil, fmt.Errorf("per-entry oracle disagrees with whole-corpus evaluation")
		}
	}
	vs.list = append(vs.list, v0)
	seen := map[string]bool{}
	for _, e := range entries {
		seen[e.ID] = true
	}

	rng := rand.New(rand.NewSource(b.o.seed + 1))
	for k := 1; k <= n; k++ {
		next := slices.Clone(entries)
		v := &version{docs: map[string]*docAnswers{}, changed: map[string]string{}}
		touched := map[int]bool{}
		var fresh []*bio.EnzymeEntry
		for i := 0; i < modsPerVersion; i++ {
			j := rng.Intn(len(next))
			for touched[j] {
				j = rng.Intn(len(next))
			}
			touched[j] = true
			e := *next[j]
			switch rng.Intn(3) {
			case 0:
				e.Catalytic = slices.Clone(next[rng.Intn(len(next))].Catalytic)
			case 1:
				e.Description = []string{fmt.Sprintf("%s (revision %d)", strings.TrimSuffix(e.Description[0], "."), k)}
			}
			if slices.Equal(e.Catalytic, next[j].Catalytic) && slices.Equal(e.Description, next[j].Description) {
				e.Comments = append([]string{fmt.Sprintf("Curated in revision %d.", k)}, e.Comments...)
			}
			next[j] = &e
			fresh = append(fresh, &e)
			v.modified = append(v.modified, e.ID)
		}
		for i := 0; i < removesPerVersion; i++ {
			j := rng.Intn(len(next))
			for touched[j] {
				j = rng.Intn(len(next))
			}
			touched[j] = true
			v.removed = append(v.removed, next[j].ID)
		}
		kept := next[:0]
		for _, e := range next {
			if !slices.Contains(v.removed, e.ID) {
				kept = append(kept, e)
			}
		}
		next = kept
		for i := 0; i < addsPerVersion; i++ {
			e := *entries[rng.Intn(len(entries))]
			e.ID = fmt.Sprintf("7.7.%d.%d", k, i+1)
			next = append(next, &e)
			fresh = append(fresh, &e)
			v.added = append(v.added, e.ID)
		}
		var buf bytes.Buffer
		if err := bio.WriteEnzyme(&buf, next); err != nil {
			return nil, err
		}
		v.flat, v.count = buf.String(), len(next)
		prev := vs.list[k-1]
		for id, d := range prev.docs {
			v.docs[id] = d
		}
		for _, id := range v.removed {
			delete(v.docs, id)
		}
		if err := vs.evalEntries(fresh, v); err != nil {
			return nil, err
		}
		vs.finish(v)
		vs.list = append(vs.list, v)
		for _, e := range fresh {
			seen[e.ID] = true
		}
		entries = next
	}
	for id := range seen {
		vs.ids = append(vs.ids, id)
	}
	sort.Strings(vs.ids)
	return vs, nil
}

// evalEntries renders entries as a flat file, transforms it as the Data
// Hounds would, and evaluates each reader query on each document alone.
// When v.changed is non-nil it also records each document's expected
// reconstruction.
func (vs *versions) evalEntries(entries []*bio.EnzymeEntry, v *version) error {
	var buf bytes.Buffer
	if err := bio.WriteEnzyme(&buf, entries); err != nil {
		return err
	}
	docs, err := hounds.EnzymeTransformer{}.Transform(&buf)
	if err != nil {
		return err
	}
	for _, d := range docs {
		c := nativexml.Corpus{dbEnzyme: {d}}
		var da docAnswers
		for _, p := range []struct {
			q   *xq.Query
			dst *[][]string
		}{{vs.q.point, &da.point}, {vs.q.fig9, &da.fig9}, {vs.q.not, &da.not}} {
			res, err := nativexml.Eval(c, p.q)
			if err != nil {
				return err
			}
			*p.dst = res.Rows
		}
		v.docs[d.Name] = &da
		if v.changed != nil {
			v.changed[d.Name] = d.Serialize(xmldoc.SerializeOptions{Indent: "  "})
		}
	}
	return nil
}

// finish assembles the version's whole-database answers.
func (vs *versions) finish(v *version) {
	var fig9, not [][]string
	for _, d := range v.docs {
		fig9 = append(fig9, d.fig9...)
		not = append(not, d.not...)
	}
	v.fig9, v.not = answerOf(2, fig9), answerOf(1, not)
	sort.Strings(v.added)
	sort.Strings(v.modified)
	sort.Strings(v.removed)
}

// pointAnswer is the point lookup's answer for id in version v.
func (v *version) pointAnswer(id string) answer {
	if d := v.docs[id]; d != nil {
		return answerOf(2, d.point)
	}
	return answerOf(2, nil)
}

// readCycle is the reader's class sequence, repeated: the same mix in
// every run, whatever the seed.
var readCycle = []string{"point", "fig9", "point", "not", "point", "fig9"}

// readRequest draws one reader request of the class readCycle[i]. Its
// check accepts the answer of
// any version from the one committed when the request is drawn to the
// one committed when its answer is checked, plus inFlight versions
// beyond that: 1 when an update may be running concurrently, whose
// commit can land before the writer records it.
func (vs *versions) readRequest(i int, rng *rand.Rand, committed *atomic.Int64, inFlight int) request {
	lo := int(committed.Load())
	hi := func() int { return min(int(committed.Load())+inFlight, len(vs.list)-1) }
	class := readCycle[i%len(readCycle)]
	var text string
	var want func(v *version) answer
	switch class {
	case "point":
		id := vs.ids[rng.Intn(len(vs.ids))]
		text = fmt.Sprintf(pointQuery, id)
		want = func(v *version) answer { return v.pointAnswer(id) }
	case "fig9":
		text = figures[1].text
		want = func(v *version) answer { return v.fig9 }
	default:
		text = readNotQuery
		want = func(v *version) answer { return v.not }
	}
	return request{class: class, text: text, check: func(got answer) error {
		top := hi()
		for k := lo; k <= top; k++ {
			if want(vs.list[k]).equal(got) {
				return nil
			}
		}
		return fmt.Errorf("%s: %w: %d rows match no version in %d..%d (against %d: %s)",
			class, errWrong, len(got.rows), lo, top, top, want(vs.list[top]).diff(got))
	}}
}

// applyVersion publishes version k, runs UpdateContext, and checks the
// change set and the warehouse against the version.
func (b *bench) applyVersion(ctx context.Context, v *version) (time.Duration, error) {
	b.w.enzSrc.Publish(v.flat)
	start := time.Now()
	cs, err := b.w.eng.UpdateContext(ctx, dbEnzyme)
	el := time.Since(start)
	if err != nil {
		return el, fmt.Errorf("update: %w", err)
	}
	return el, b.verifyVersion(cs, v)
}

// verifyVersion checks that the warehouse now holds exactly version v:
// the reported change set, the entry count, every changed entry's
// reconstruction, and the absence of removed entries.
func (b *bench) verifyVersion(cs hounds.ChangeSet, v *version) error {
	eng := b.w.eng
	for _, c := range []struct {
		name      string
		got, want []string
	}{{"added", cs.Added, v.added}, {"modified", cs.Modified, v.modified}, {"removed", cs.Removed, v.removed}} {
		got := slices.Clone(c.got)
		sort.Strings(got)
		if !slices.Equal(got, c.want) {
			return fmt.Errorf("update %s %v, want %v", c.name, got, c.want)
		}
	}
	n, err := eng.DocCount(dbEnzyme)
	if err != nil {
		return err
	}
	if n != v.count {
		return fmt.Errorf("update left %d entries, want %d", n, v.count)
	}
	for id, want := range v.changed {
		got, err := eng.Document(dbEnzyme, id)
		if err != nil {
			return fmt.Errorf("entry %s after update: %w", id, err)
		}
		if got != want {
			return fmt.Errorf("entry %s after update differs from the published version", id)
		}
	}
	for _, id := range v.removed {
		if _, err := eng.Document(dbEnzyme, id); err == nil {
			return fmt.Errorf("removed entry %s still present", id)
		}
	}
	return nil
}

// spaceAfter is the number of versions after which the update workloads
// take space_amp. Every version grows the warehouse (about 20 pages and
// 120 KB of WAL), so a figure taken when the time window closes would
// grow with update throughput. A run that has not applied this many
// versions when its window closes goes on updating until it has; the
// latencies of those updates count in the last round.
const spaceAfter = 30

// maxVersions bounds how many versions a run prepares: enough for an
// update every 250 ms, about half the time of the fastest update seen,
// and at least spaceAfter.
func maxVersions(seconds int) int { return max(4*seconds+4, spaceAfter) }

// afterUpdate is called once version k is committed and checked; after
// the spaceAfter-th it records space_amp.
func (b *bench) afterUpdate(k int) error {
	if k != spaceAfter {
		return nil
	}
	return b.recordSpace()
}

// startUpdates prepares the version sequence and warms the plan cache
// and the native corpus with a few reads.
func (b *bench) startUpdates(ctx context.Context) (*versions, *rand.Rand, error) {
	vs, err := b.buildVersions(maxVersions(b.o.seconds))
	if err != nil {
		return nil, nil, err
	}
	var none atomic.Int64
	rng := rand.New(rand.NewSource(b.o.seed + 2))
	for i := range readCycle {
		b.send(ctx, vs.readRequest(i, rng, &none, 0))
	}
	return vs, rng, nil
}

// updateMetrics reports update and read latencies; op1..op3 are the
// update, the point read and the Fig. 9 read.
func (b *bench) updateMetrics(vs *versions, applied int, updates series, reads map[string]*series) {
	b.notes["versions_applied"] = applied
	if applied == len(vs.list)-1 {
		b.notes["writer_ran_out_of_versions"] = true
	}
	var all series
	for c, s := range reads {
		b.putDist("read_"+c, summarize(s.all(), 99))
		for r := range s {
			all[r] = append(all[r], s[r]...)
		}
	}
	ud := summarize(updates.all(), 99)
	b.report["update_p50_ms"] = named{Value: ud.P50, Unit: "ms", Samples: ud.N, Percentile: 50}
	b.putDist("read", summarize(all.all(), 99))
	b.putOps(&updates, reads["point"], reads["fig9"])
	b.e2e["ok_ratio"] = metric{b.okRatio(), "ratio"}
}

func newReadSeries() map[string]*series {
	return map[string]*series{"point": {}, "fig9": {}, "not": {}}
}

// runUpdateUnderRead runs the writer and a closed-loop reader side by
// side: each update runs while reads are in flight.
func runUpdateUnderRead(ctx context.Context, b *bench) error {
	vs, rng, err := b.startUpdates(ctx)
	if err != nil {
		return err
	}
	var committed atomic.Int64
	var updates series
	reads := newReadSeries()
	applied := 0
	var spaceErr error
	b.measure(func() {
		start := time.Now()
		d := time.Duration(b.o.seconds) * time.Second
		round := func() int { return int(time.Since(start) * rounds / d) }
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 1; k < len(vs.list) && (time.Since(start) < d || k <= spaceAfter) && spaceErr == nil; k++ {
				el, err := b.applyVersion(ctx, vs.list[k])
				b.done(err)
				updates.add(round(), ms(el))
				committed.Store(int64(k))
				applied = k
				spaceErr = b.afterUpdate(k)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				r := vs.readRequest(i, rng, &committed, 1)
				reads[r.class].add(round(), b.send(ctx, r))
			}
		}()
		wg.Wait()
	})
	if spaceErr != nil {
		return spaceErr
	}
	b.updateMetrics(vs, applied, updates, reads)
	return nil
}

// runUpdateThenRead alternates the writer and the reader: each update
// is followed by one readCycle of reads of the version it committed.
func runUpdateThenRead(ctx context.Context, b *bench) error {
	vs, rng, err := b.startUpdates(ctx)
	if err != nil {
		return err
	}
	var committed atomic.Int64
	var updates series
	reads := newReadSeries()
	applied := 0
	var spaceErr error
	b.measure(func() {
		start := time.Now()
		d := time.Duration(b.o.seconds) * time.Second
		for k := 1; k < len(vs.list) && (time.Since(start) < d || k <= spaceAfter); k++ {
			round := int(time.Since(start) * rounds / d)
			el, err := b.applyVersion(ctx, vs.list[k])
			b.done(err)
			updates.add(round, ms(el))
			committed.Store(int64(k))
			applied = k
			if spaceErr = b.afterUpdate(k); spaceErr != nil {
				return
			}
			for i := range readCycle {
				r := vs.readRequest(i, rng, &committed, 0)
				reads[r.class].add(round, b.send(ctx, r))
			}
		}
	})
	if spaceErr != nil {
		return spaceErr
	}
	b.updateMetrics(vs, applied, updates, reads)
	return nil
}

// traceUpdate alternates traced and untraced cycles for the whole run:
// odd versions are applied and read traced, one request at a time, so
// that every counter delta belongs to one operation; even versions are
// applied and read untraced, for the tracing overhead.
func traceUpdate(ctx context.Context, b *bench) error {
	vs, rng, err := b.startUpdates(ctx)
	if err != nil {
		return err
	}
	t, err := newTracedRun(ctx, b)
	if err != nil {
		return err
	}
	defer t.close()
	var committed atomic.Int64
	tr := hounds.EnzymeTransformer{}
	dtdEnz := tr.DTD()
	end := time.Now().Add(time.Duration(b.o.seconds) * time.Second)
	for k := 1; k < len(vs.list) && time.Now().Before(end); k++ {
		traced := k%2 == 1
		if traced {
			// The previous version's documents, for the replayed diff.
			prev, err := tr.Transform(strings.NewReader(vs.list[k-1].flat))
			if err != nil {
				return err
			}
			if err := t.update(ctx, vs.list[k], prev, dtdEnz); err != nil {
				return err
			}
		} else {
			_, err := b.applyVersion(ctx, vs.list[k])
			b.done(err)
		}
		committed.Store(int64(k))
		for i := range readCycle {
			r := vs.readRequest(i, rng, &committed, 0)
			if !traced {
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

// update is one traced write: the Data Hounds stages replayed on the
// published dump (TransformAndValidate, DTD validation on its own and
// DiffDocs against the previous version), then UpdateContext with
// counter deltas around it, then the ANALYZE every load ends with.
func (t *tracedRun) update(ctx context.Context, v *version, prev []*xmldoc.Document, d *dtd.DTD) error {
	eng := t.b.w.eng
	req := t.nreq
	t.nreq++
	root := t.tr.begin(req, -1, "update")
	defer t.tr.end(root)
	var docs []*xmldoc.Document
	var err error
	tfID := t.tr.begin(req, root, "hounds.transform")
	docs, err = hounds.TransformAndValidate(hounds.EnzymeTransformer{}, strings.NewReader(v.flat))
	t.tr.end(tfID)
	if err != nil {
		return err
	}
	t.tr.timed(req, root, "dtd.validate", func() {
		for _, doc := range docs {
			if errs := d.Validate(doc); len(errs) > 0 {
				err = fmt.Errorf("entry %s: %v", doc.Name, errs[0])
				return
			}
		}
	})
	if err != nil {
		return err
	}
	diffID := t.tr.begin(req, root, "hounds.diff")
	hounds.DiffDocs(dbEnzyme, "replay", prev, docs)
	t.tr.end(diffID)

	s0, err := eng.Snapshot()
	if err != nil {
		return err
	}
	r0 := eng.Registry().Snapshot()
	t.b.w.enzSrc.Publish(v.flat)
	upID := t.tr.begin(req, root, "core.update")
	cs, uerr := eng.UpdateContext(ctx, dbEnzyme)
	t.tr.end(upID)
	r1 := eng.Registry().Snapshot()
	s1, err := eng.Snapshot()
	if err != nil {
		return err
	}
	if uerr == nil {
		uerr = t.b.verifyVersion(cs, v)
	}
	t.b.done(uerr)
	t.invals += s1.PlanCache.Invalidations - s0.PlanCache.Invalidations
	t.tr.timed(req, root, "sql.analyze", func() { err = eng.Store().AnalyzeStats() })
	if err != nil {
		return err
	}
	t.updates = append(t.updates, updateRec{
		update:     t.tr.get(upID).dur(),
		hounds:     t.tr.get(tfID).dur() + t.tr.get(diffID).dur(),
		fileGrowth: s1.DB.FilePages - s0.DB.FilePages,
		reg:        regDelta(r0, r1),
	})
	return nil
}
