package main

import (
	"context"
	"fmt"
	"time"

	"xomatiq/internal/benchutil"
)

// figures are the paper's three visual queries, sent verbatim. weight is
// a figure's share of the window: Fig. 8 takes about ten times as long
// as the others, so it gets more time to collect enough samples.
var figures = []struct {
	class, text string
	weight      int
}{
	{"fig8", benchutil.Figure8Query, 3},
	{"fig9", benchutil.Figure9Query, 1},
	{"fig11", benchutil.Figure11Query, 1},
}

// figureRequests returns one checked request per figure.
func (b *bench) figureRequests() ([]request, error) {
	var reqs []request
	for _, f := range figures {
		want, err := b.orc.expect(f.text)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{class: f.class, text: f.text, check: expectAnswer(f.class, want)})
	}
	return reqs, nil
}

// expectAnswer checks a reply against one expected answer.
func expectAnswer(class string, want answer) func(answer) error {
	return func(got answer) error {
		if !got.equal(want) {
			return fmt.Errorf("%s: %w: %s", class, errWrong, want.diff(got))
		}
		return nil
	}
}

// runPaper runs each figure in its own closed-loop phase with one client.
// The executor already spreads a query over both CPUs of a two-CPU
// machine; a second client made each latency depend on what the other
// one was running. The three phases repeat once per round.
func runPaper(ctx context.Context, b *bench) error {
	reqs, err := b.figureRequests()
	if err != nil {
		return err
	}
	// Warm the plan cache and the buffer pool before timing.
	for _, r := range reqs {
		b.send(ctx, r)
	}
	weights := 0
	for _, f := range figures {
		weights += f.weight
	}
	unit := time.Duration(b.o.seconds) * time.Second / time.Duration(rounds*weights)
	lat := make([]series, len(reqs))
	b.measure(func() {
		for round := 0; round < rounds; round++ {
			for i, r := range reqs {
				end := time.Now().Add(time.Duration(figures[i].weight) * unit)
				for time.Now().Before(end) && ctx.Err() == nil {
					lat[i].add(round, b.send(ctx, r))
				}
			}
		}
	})
	for i, r := range reqs {
		b.putDist(r.class, summarize(lat[i].all(), 99))
	}
	b.putOps(&lat[0], &lat[1], &lat[2])
	b.e2e["ok_ratio"] = metric{b.okRatio(), "ratio"}
	return nil
}

// tracePaper replays the same phases one request at a time.
func tracePaper(ctx context.Context, b *bench) error {
	reqs, err := b.figureRequests()
	if err != nil {
		return err
	}
	for _, r := range reqs {
		b.send(ctx, r)
	}
	var phases []phase
	for _, r := range reqs {
		phases = append(phases, func(int) (request, bool) { return r, true })
	}
	return b.traceSequence(ctx, phases)
}

// send runs one checked request, records its outcome and returns its
// latency in ms: the reply's rtt, or for a failed request the time until
// it failed. The check is not timed.
func (b *bench) send(ctx context.Context, r request) float64 {
	start := time.Now()
	rep, err := b.w.query(ctx, r.text)
	el := time.Since(start)
	if err == nil {
		el = rep.rtt
		err = r.check(answerOf(len(rep.res.Columns), rep.res.Rows))
	}
	b.done(err)
	return ms(el)
}

// okRatio is the share of attempted operations that succeeded.
func (b *bench) okRatio() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return 1 - ratio(float64(b.failed), float64(b.attempted))
}
