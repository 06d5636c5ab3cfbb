package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"xomatiq/internal/nativexml"
	"xomatiq/internal/xq"
)

// answer is an expected or received result as a sorted row multiset.
type answer struct {
	cols int
	rows []string
}

func answerOf(cols int, rows [][]string) answer {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	return answer{cols: cols, rows: keys}
}

func (a answer) equal(b answer) bool {
	if a.cols != b.cols || len(a.rows) != len(b.rows) {
		return false
	}
	for i := range a.rows {
		if a.rows[i] != b.rows[i] {
			return false
		}
	}
	return true
}

// diff describes how got departs from a: rows missing and extra, with
// an example of each.
func (a answer) diff(got answer) string {
	count := map[string]int{}
	for _, r := range a.rows {
		count[r]++
	}
	var extra []string
	for _, r := range got.rows {
		if count[r] > 0 {
			count[r]--
		} else {
			extra = append(extra, r)
		}
	}
	var missing []string
	for r, n := range count {
		for ; n > 0; n-- {
			missing = append(missing, r)
		}
	}
	sort.Strings(missing)
	s := fmt.Sprintf("%d missing, %d extra", len(missing), len(extra))
	if len(missing) > 0 {
		s += fmt.Sprintf("; missing e.g. %q", missing[0])
	}
	if len(extra) > 0 {
		s += fmt.Sprintf("; extra e.g. %q", extra[0])
	}
	return s
}

// oracle answers queries with the native-XML evaluator over the
// documents the flat files transform into, independently of the
// warehouse under test. Answers are cached by query text.
type oracle struct {
	corpus nativexml.Corpus
	mu     sync.Mutex
	cache  map[string]answer
}

func newOracle(c nativexml.Corpus) *oracle {
	return &oracle{corpus: c, cache: map[string]answer{}}
}

func (o *oracle) expect(text string) (answer, error) {
	o.mu.Lock()
	a, ok := o.cache[text]
	o.mu.Unlock()
	if ok {
		return a, nil
	}
	q, err := xq.Parse(text)
	if err != nil {
		return answer{}, fmt.Errorf("oracle parse: %w", err)
	}
	res, err := nativexml.Eval(o.corpus, q)
	if err != nil {
		return answer{}, fmt.Errorf("oracle eval: %w", err)
	}
	a = answerOf(len(res.Columns), res.Rows)
	o.mu.Lock()
	o.cache[text] = a
	o.mu.Unlock()
	return a, nil
}
