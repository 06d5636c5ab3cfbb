package sql

import (
	"time"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// tracedChunkIter is the batch-operator actuals recorder: rows are
// counted per chunk (one NextChunk may emit hundreds of rows), batches
// are counted per call, and time stays inclusive of children — keeping
// EXPLAIN ANALYZE row counts exact under vectorized execution.
type tracedChunkIter struct {
	in batchIter
	op *obs.OpStats
}

func (t *tracedChunkIter) Schema() *Schema { return t.in.Schema() }

func (t *tracedChunkIter) NextChunk() (*chunk, error) {
	start := time.Now()
	c, err := t.in.NextChunk()
	if c != nil && err == nil {
		t.op.ObserveBatch(int64(c.Rows()), time.Since(start))
	} else {
		t.op.Observe(time.Since(start))
	}
	return c, err
}

// tracedBatchIf wraps it with an actuals recorder when the plan line
// carries an operator handle; with tracing off (op nil) the iterator
// passes through untouched, so the normal query path pays nothing.
func tracedBatchIf(op *obs.OpStats, it batchIter) batchIter {
	if op == nil {
		return it
	}
	return &tracedChunkIter{in: it, op: op}
}

// chunkScanIter is the batched sequential scan: every NextChunk decodes
// whole heap pages straight into the reused chunk's column vectors until
// the batch target is reached (page granularity, so a dense page may
// overshoot the target slightly). Per-row work is two appends per
// column — no Tuple and no per-TEXT-field string allocation. Page pins
// are held only inside ScanPage, and a cancel fires between pages.
type chunkScanIter struct {
	es *execState
	p  *scanPlan

	started bool
	cur     disk.PageID
	out     *chunk
	eof     bool
}

func (s *chunkScanIter) Schema() *Schema { return s.p.schema }

func (s *chunkScanIter) NextChunk() (*chunk, error) {
	if s.eof {
		return nil, nil
	}
	if !s.started {
		s.started = true
		s.cur = s.p.t.Heap.FirstPage()
		s.out = newChunk(s.p.schema, s.p.batch)
	}
	s.out.Reset()
	for !s.out.Full() {
		if s.cur == disk.InvalidPage {
			s.eof = true
			break
		}
		var serr error
		records := 0
		next, _, err := s.p.t.Heap.ScanPage(s.cur, func(rid heap.RID, rec []byte) bool {
			if cerr := s.es.poll(); cerr != nil {
				serr = cerr
				return false
			}
			if derr := s.out.AppendRecord(rec); derr != nil {
				serr = derr
				return false
			}
			if s.p.rids {
				s.out.rids = append(s.out.rids, rid)
			}
			records++
			return true
		})
		if err != nil {
			return nil, err
		}
		if serr != nil {
			return nil, serr
		}
		s.es.scannedPage(records)
		s.cur = next
	}
	return s.out.orNil(), nil
}

// chunkRIDIter is the batched index scan: the first NextChunk collects
// the plan's RID list from the index, and every call then fetches and
// decodes the next batch of records in index order.
type chunkRIDIter struct {
	es *execState
	p  *scanPlan

	rids []heap.RID
	pos  int
	out  *chunk
}

func (r *chunkRIDIter) Schema() *Schema { return r.p.schema }

func (r *chunkRIDIter) NextChunk() (*chunk, error) {
	if r.out == nil {
		rids, err := r.p.lookup(r.es)
		if err != nil {
			return nil, err
		}
		r.rids = rids
		r.out = newChunk(r.p.schema, r.p.batch)
	}
	if r.pos >= len(r.rids) {
		return nil, nil
	}
	r.out.Reset()
	for !r.out.Full() && r.pos < len(r.rids) {
		if err := r.es.poll(); err != nil {
			return nil, err
		}
		rid := r.rids[r.pos]
		rec, err := r.p.t.Heap.Get(rid)
		if err != nil {
			return nil, err
		}
		if err := r.out.AppendRecord(rec); err != nil {
			return nil, err
		}
		if r.p.rids {
			r.out.rids = append(r.out.rids, rid)
		}
		r.pos++
	}
	return r.out, nil
}

// chunkPred is a predicate compiled against one schema: evaluating it on
// a chunk row materialises only the columns it reads into the scratch
// row, so a two-column predicate over a wide join output stays cheap.
type chunkPred struct {
	expr Expr
	cols []int // columns the predicate reads; all when unresolvable
	all  bool
}

func newChunkPred(e Expr, schema *Schema) chunkPred {
	cols, ok := predCols(e, schema)
	return chunkPred{expr: e, cols: cols, all: !ok}
}

// holds evaluates the predicate on physical row r of c; row.Values is
// the caller's scratch tuple (schema width).
func (p *chunkPred) holds(c *chunk, r int, row Row) (bool, error) {
	if p.all {
		c.ReadRow(r, row.Values)
	} else {
		c.ReadCols(r, p.cols, row.Values)
	}
	v, err := Eval(p.expr, row)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

// chunkFilterIter evaluates a predicate over each input chunk and
// narrows its selection vector in place — surviving rows are listed, no
// columns move.
type chunkFilterIter struct {
	in      batchIter
	pred    chunkPred
	scratch value.Tuple
	sel     []int
}

func newChunkFilter(in batchIter, pred Expr) *chunkFilterIter {
	schema := in.Schema()
	return &chunkFilterIter{
		in: in, pred: newChunkPred(pred, schema),
		scratch: make(value.Tuple, len(schema.Cols)),
	}
}

func (f *chunkFilterIter) Schema() *Schema { return f.in.Schema() }

func (f *chunkFilterIter) NextChunk() (*chunk, error) {
	row := Row{Schema: f.in.Schema(), Values: f.scratch}
	for {
		c, err := f.in.NextChunk()
		if err != nil || c == nil {
			return nil, err
		}
		f.sel = f.sel[:0]
		for k, n := 0, c.Rows(); k < n; k++ {
			r := c.RowIdx(k)
			ok, err := f.pred.holds(c, r, row)
			if err != nil {
				return nil, err
			}
			if ok {
				f.sel = append(f.sel, r)
			}
		}
		if len(f.sel) == 0 {
			continue // nothing survived; pull the next batch
		}
		c.sel = f.sel
		return c, nil
	}
}

// predCols lists the schema columns a predicate reads. ok is false when
// the expression contains something unresolvable (the filter then copies
// the full row per candidate).
func predCols(e Expr, schema *Schema) (cols []int, ok bool) {
	ok = true
	seen := map[int]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		if !ok {
			return
		}
		switch e := e.(type) {
		case *Literal:
		case *ColumnRef:
			i, err := schema.Find(e)
			if err != nil {
				ok = false
				return
			}
			if !seen[i] {
				seen[i] = true
				cols = append(cols, i)
			}
		case *BinaryExpr:
			walk(e.Left)
			walk(e.Right)
		case *UnaryExpr:
			walk(e.Expr)
		case *LikeExpr:
			walk(e.Expr)
			walk(e.Pattern)
		case *InExpr:
			walk(e.Expr)
			for _, x := range e.List {
				walk(x)
			}
		case *BetweenExpr:
			walk(e.Expr)
			walk(e.Lo)
			walk(e.Hi)
		case *IsNullExpr:
			walk(e.Expr)
		case *FuncCall:
			for _, a := range e.Args {
				walk(a)
			}
		default:
			ok = false
		}
	}
	walk(e)
	if !ok {
		return nil, false
	}
	return cols, true
}
