package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"xomatiq/internal/xmldoc"
)

// lookupRate is the open-loop arrival rate of lookup-stream, a little
// under half the capacity two closed-loop clients reached on this mix
// (≈100 req/s on a 2-vCPU Xeon VM), so the queue stays short when
// nothing regresses.
const lookupRate = 45

// lookupLimit is the latency within which a lookup counts as answered.
const lookupLimit = 100 * time.Millisecond

// Query shapes of lookup-stream. The last two fall outside the subset
// xq2sql translates, so the engine answers them natively.
const (
	pointQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE $a//enzyme_id = "%s"
RETURN $a//enzyme_id, $a//enzyme_description`
	subtreeQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "%s")
RETURN $a//enzyme_id, $a//enzyme_description`
	keywordQuery = `FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE contains($a, "%s", any)
RETURN $a//embl_accession_number`
	notQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "%s") AND NOT contains($a//comment_list, "%s")
RETURN $a//enzyme_id`
	orQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "%s") OR contains($a//cofactor_list, "%s")
RETURN $a//enzyme_id`
)

// terms are the corpus words the searches draw from.
type terms struct {
	catalytic, embl, comment, cofactor []string
}

// corpusTerms picks 24 words (letters only, four or more) from each set
// of elements the searches address. The pick depends on the corpus seed
// only: a word's frequency sets its search's cost, so drawing the word
// set from --seed would move the search medians between runs by more
// than a regression worth catching. --seed orders the requests.
func (b *bench) corpusTerms() terms {
	rng := rand.New(rand.NewSource(b.o.corpusSeed))
	pick := func(db string, elems ...string) []string {
		seen := map[string]bool{}
		for _, d := range b.orc.corpus[db] {
			for _, el := range elems {
				for _, n := range d.Root.DescendantElements(el) {
					for _, w := range words(n) {
						seen[w] = true
					}
				}
			}
		}
		out := make([]string, 0, len(seen))
		for w := range seen {
			out = append(out, w)
		}
		sort.Strings(out)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		if len(out) > 24 {
			out = out[:24]
		}
		return out
	}
	return terms{
		catalytic: pick(dbEnzyme, "catalytic_activity"),
		embl:      pick(dbEMBL, "description", "keyword", "gene"),
		comment:   pick(dbEnzyme, "comment"),
		cofactor:  pick(dbEnzyme, "cofactor"),
	}
}

func words(n *xmldoc.Node) []string {
	var out []string
	for _, w := range strings.FieldsFunc(strings.ToLower(n.Text()), func(r rune) bool { return !unicode.IsLetter(r) }) {
		if len(w) >= 4 {
			out = append(out, w)
		}
	}
	return out
}

// lookupBlock is the class make-up of every 40 consecutive requests:
// 55% point lookups on enzyme ids, 20% sub-tree searches, 20% EMBL
// keyword searches, and a NOT and a cross-path OR shape. Only the order
// within a block is drawn, so every run has the same mix.
var lookupBlock = map[string]int{"point": 22, "subtree": 8, "keyword": 8, "not": 1, "or": 1}

// lookupMix draws n requests, each checked against the oracle. Search
// words are taken in turn from a seeded permutation of each list, so
// each word is searched about equally often in every run: a median over
// words of different cost would otherwise move with the draw.
func (b *bench) lookupMix(rng *rand.Rand, t terms, n int) ([]request, error) {
	var block []string
	for _, c := range []string{"point", "subtree", "keyword", "not", "or"} {
		for k := 0; k < lookupBlock[c]; k++ {
			block = append(block, c)
		}
	}
	cycle := func(xs []string) func() string {
		perm := rng.Perm(len(xs))
		i := 0
		return func() string { i++; return xs[perm[(i-1)%len(xs)]] }
	}
	id := func() string { return b.flats.EnzymeIDs[rng.Intn(len(b.flats.EnzymeIDs))] }
	catalytic, embl := cycle(t.catalytic), cycle(t.embl)
	comment, cofactor := cycle(t.comment), cycle(t.cofactor)
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, c := range block[:min(len(block), n-len(reqs))] {
			class, text := c, ""
			switch c {
			case "point":
				text = fmt.Sprintf(pointQuery, id())
			case "subtree":
				text = fmt.Sprintf(subtreeQuery, catalytic())
			case "keyword":
				text = fmt.Sprintf(keywordQuery, embl())
			case "not":
				class, text = "native", fmt.Sprintf(notQuery, catalytic(), comment())
			case "or":
				class, text = "native", fmt.Sprintf(orQuery, catalytic(), cofactor())
			}
			want, err := b.orc.expect(text)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{class: class, text: text, check: expectAnswer(class, want)})
		}
	}
	return reqs, nil
}

// lookupSchedule is the seeded request sequence of one run, after a
// warm-up sequence drawn from the same mix.
func (b *bench) lookupSchedule() (warm, reqs []request, err error) {
	rng := rand.New(rand.NewSource(b.o.seed))
	t := b.corpusTerms()
	if reqs, err = b.lookupMix(rng, t, lookupRate*b.o.seconds); err != nil {
		return nil, nil, err
	}
	if warm, err = b.lookupMix(rng, t, 40); err != nil {
		return nil, nil, err
	}
	// Build the native evaluator's corpus before timing too.
	for _, r := range reqs {
		if r.class == "native" {
			warm = append(warm, r)
			break
		}
	}
	return warm, reqs, nil
}

// runLookup sends the schedule open loop: request i is due at
// i/lookupRate seconds after the start, whether or not earlier ones have
// been answered, over at most two connections. Latency runs from the
// due time, so a stall also counts against the requests queued behind
// it.
func runLookup(ctx context.Context, b *bench) error {
	warm, reqs, err := b.lookupSchedule()
	if err != nil {
		return err
	}
	for _, r := range warm {
		b.send(ctx, r)
	}
	interval := time.Second / lookupRate
	// start is set once measure has collected the heap, so the schedule
	// does not begin behind.
	var start time.Time
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	type outcome struct {
		lat  time.Duration // from the due time
		svc  time.Duration // from the send
		done time.Time
		ok   bool
	}
	out := make([]outcome, len(reqs))
	late := make([]float64, len(reqs))
	// Buffered to the schedule length: the generator never waits on the
	// senders, so a slow server shows as queueing, not as a late generator.
	jobs := make(chan int, len(reqs))
	b.measure(func() {
		start = time.Now().Add(20 * time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			for i := range reqs {
				time.Sleep(time.Until(due(i)))
				late[i] = ms(time.Since(due(i)))
				jobs <- i
			}
		}()
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					r := reqs[i]
					sent := time.Now()
					rep, err := b.w.query(ctx, r.text)
					now := time.Now()
					if err == nil {
						now = sent.Add(rep.rtt)
						err = r.check(answerOf(len(rep.res.Columns), rep.res.Rows))
					}
					b.done(err)
					out[i] = outcome{lat: now.Sub(due(i)), svc: now.Sub(sent), done: now, ok: err == nil}
				}
			}()
		}
		wg.Wait()
	})

	// Per class, both latency from the due time (what a user sees) and
	// service time from the send (what the server took).
	byClass, svc := map[string]*series{}, map[string]*series{}
	for _, c := range []string{"point", "subtree", "keyword", "native"} {
		byClass[c], svc[c] = &series{}, &series{}
	}
	windowEnd := due(len(reqs))
	var all series
	okWithin, backlog := 0, 0
	for i, o := range out {
		l, round := ms(o.lat), i*rounds/len(out)
		all.add(round, l)
		byClass[reqs[i].class].add(round, l)
		svc[reqs[i].class].add(round, ms(o.svc))
		if o.ok && o.lat <= lookupLimit {
			okWithin++
		}
		if o.done.After(windowEnd) {
			backlog++
		}
	}
	lateD := summarize(late, 99)
	b.notes["generator_late_p50_ms"] = lateD.P50
	b.notes["generator_late_max_ms"] = maxOf(late)
	b.notes["backlog_at_end"] = backlog
	b.notes["offered_rate_per_s"] = lookupRate
	// The generator fell behind if it sent any request more than two
	// intervals late: three or more requests then went out in one burst,
	// not at the stated rate, even when it caught up later. Single sends
	// up to about one interval late are scheduling jitter: with both CPUs
	// of a two-CPU machine busy serving, the woken generator waits for
	// the Go scheduler's next time slice.
	if worst := maxOf(late); worst > 2*ms(interval) {
		return fmt.Errorf("run invalid: generator fell behind its schedule by %.1f ms", worst)
	}

	b.putDist("lookup", summarize(all.all(), 99))
	okRatio := float64(okWithin) / float64(len(out))
	b.put("lookup_ok_ratio", okRatio, "ratio")
	for c, s := range byClass {
		b.putDist("lookup_"+c, summarize(s.all(), 99))
		b.putDist("lookup_"+c+"_service", summarize(svc[c].all(), 99))
	}
	// The gate takes service times: latency from the due time adds the
	// queueing behind other requests, which multiplies any slowdown of
	// the machine and would hide a change of the code in run-to-run
	// spread.
	b.putOps(svc["point"], svc["subtree"], svc["keyword"])
	b.e2e["ok_ratio"] = metric{okRatio, "ratio"}
	return nil
}

// traceLookup replays the same schedule one request at a time.
func traceLookup(ctx context.Context, b *bench) error {
	warm, reqs, err := b.lookupSchedule()
	if err != nil {
		return err
	}
	for _, r := range warm {
		b.send(ctx, r)
	}
	return b.traceSequence(ctx, []phase{func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	}})
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
