package sql

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"xomatiq/internal/obs"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// equiPair is one left-expr = right-column equality usable as a join key.
type equiPair struct {
	left     Expr // evaluated against the left schema
	rightCol int  // column position in the right table
}

// buildJoin adds one table to the join tree. It prefers, in order: index
// nested-loop join (right table has an index whose leading column is a
// join key), partitioned hash join (any equi keys), and nested-loop join
// (everything else). The ON residual is applied at the join; WHERE
// conjuncts are re-checked by the outer filter.
// est is the cost model's output-cardinality estimate for this join,
// rendered on the plan line (EXPLAIN ANALYZE pairs it with actuals).
func (db *DB) buildJoin(es *execState, left batchIter, rt *TableInfo, ref TableRef, whereConjs []Expr, rightFilter []Expr, est float64) batchIter {
	binding := ref.Binding()
	rightSchema := rt.Schema(binding)
	outSchema := left.Schema().Concat(rightSchema)

	// Candidate equality conjuncts: the ON clause plus WHERE conjuncts
	// linking the right table to the left stream.
	cands := conjuncts(ref.On)
	cands = append(cands, whereConjs...)
	var pairs []equiPair
	var residual []Expr
	for i, c := range cands {
		fromOn := i < len(conjuncts(ref.On))
		if p, ok := db.asEquiPair(c, left.Schema(), binding, rt); ok {
			pairs = append(pairs, p)
			continue
		}
		if fromOn {
			residual = append(residual, c)
		}
	}

	// The right side materialises through its own access path (which may
	// use an index for pushed-down equality/range conjuncts) with the
	// remaining single-binding filters applied inline. A large sequential
	// right side parallelises just like a driving scan, so hash-join and
	// nested-loop builds also scale with QueryWorkers.
	// rightSrc runs lazily inside the join's first NextChunk (on the
	// caller's goroutine), so its scan/parallel-scan trace lines appear
	// only when the build actually executes — plain EXPLAIN never reaches
	// it.
	rightSrc := func() batchIter {
		p := db.accessPath(es, rt, binding, whereConjs)
		if pit, pop, ok := parallelizeScan(es, p, rightFilter); ok {
			return tracedBatchIf(pop, pit)
		}
		it := p.open(es)
		for _, f := range rightFilter {
			it = newChunkFilter(it, f)
		}
		return it
	}
	var join batchIter
	switch ix := pickJoinIndex(rt, pairs); {
	case ix != nil:
		op := es.tracef("join %s as %s: index nested loop via %s (%d keys) (est rows=%d)",
			rt.Name, binding, ix.Name, len(pairs), estRowsInt(est))
		join = tracedBatchIf(op, newIndexLoopJoin(es, left, rt, rightSchema, outSchema, ix, pairs, rightFilter))
	case len(pairs) > 0:
		// The partition count is a plan decision: deterministic in the
		// statistics-backed build-side estimate (and the memory budget,
		// which raises it so one partition fits the budget).
		parts := partitionsFor(estScanRows(rt, binding, whereConjs), es.memBudget, len(rightSchema.Cols))
		op := es.tracef("join %s as %s: partitioned hash join (%d keys, partitions=%d) (est rows=%d)",
			rt.Name, binding, len(pairs), parts, estRowsInt(est))
		join = tracedBatchIf(op, newPartHashJoin(es, left, outSchema, pairs, rightSrc, parts, op))
	default:
		op := es.tracef("join %s as %s: nested loop (cross) (est rows=%d)",
			rt.Name, binding, estRowsInt(est))
		join = tracedBatchIf(op, &crossJoin{es: es, left: leftCursor{in: left}, outSchema: outSchema, rightSrc: rightSrc})
	}
	for _, r := range residual {
		join = newChunkFilter(join, r)
	}
	return join
}

// asEquiPair matches expr as leftExpr = right.col (either orientation)
// where leftExpr resolves against the left schema and right.col belongs
// to the right binding.
func (db *DB) asEquiPair(e Expr, leftSchema *Schema, binding string, rt *TableInfo) (equiPair, bool) {
	b, ok := e.(*BinaryExpr)
	if !ok || b.Op != OpEq {
		return equiPair{}, false
	}
	try := func(l, r Expr) (equiPair, bool) {
		rc, ok := r.(*ColumnRef)
		if !ok || !refersTo(rc, binding, rt) {
			return equiPair{}, false
		}
		// An unqualified reference that also resolves on the left is
		// ambiguous; require explicit qualification in that case.
		if rc.Table == "" {
			if _, err := leftSchema.Find(rc); err == nil {
				return equiPair{}, false
			}
		}
		lc, ok := l.(*ColumnRef)
		if ok {
			if _, err := leftSchema.Find(lc); err != nil {
				return equiPair{}, false
			}
		} else if _, isLit := l.(*Literal); !isLit {
			// Allow arbitrary left expressions only when they reference
			// the left schema exclusively; keep it simple: columns and
			// literals.
			return equiPair{}, false
		}
		return equiPair{left: l, rightCol: rt.ColIndex(rc.Column)}, true
	}
	if p, ok := try(b.Left, b.Right); ok {
		return p, true
	}
	if p, ok := try(b.Right, b.Left); ok {
		return p, true
	}
	return equiPair{}, false
}

// pickJoinIndex returns an index on rt whose columns are all join keys
// and whose probe key actually depends on the left row (at least one
// non-literal pair). A probe built purely from literal equalities would
// fetch the same rows for every left tuple — a degenerate nested loop —
// where a hash join with an indexed build is strictly better.
func pickJoinIndex(rt *TableInfo, pairs []equiPair) *IndexInfo {
	for _, ix := range rt.Indexes {
		if len(ix.ColPos) > len(pairs) {
			continue
		}
		ok := true
		leftDependent := false
		for _, pos := range ix.ColPos {
			found := false
			for _, p := range pairs {
				if p.rightCol == pos {
					found = true
					if _, lit := p.left.(*Literal); !lit {
						leftDependent = true
					}
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok && leftDependent {
			return ix
		}
	}
	return nil
}

// pairCols extracts the distinct right column positions of the pairs, in
// first-appearance order.
func pairCols(pairs []equiPair) []int {
	var cols []int
	for _, p := range pairs {
		dup := false
		for _, c := range cols {
			if c == p.rightCol {
				dup = true
				break
			}
		}
		if !dup {
			cols = append(cols, p.rightCol)
		}
	}
	return cols
}

// fnvHash is FNV-1a, the partition function of the partitioned hash
// join. Any fixed function works for correctness (same key always lands
// in the same partition within one build); FNV keeps partitioning cheap
// and dependency-free.
func fnvHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// joinPartition is one build-side partition: the materialised right rows
// and their join keys in right-source order, plus the hash table over
// them. The (keys, rows) pair is self-contained — it references nothing
// outside the partition — which is the spill seam: under a memory
// budget, an overflowing partition writes the pair to a temp file in
// stream order and is reloaded per probe chunk that touches it.
type joinPartition struct {
	keys  []string
	rows  []value.Tuple
	table map[string][]value.Tuple

	bytes   int64 // estimated resident bytes while buffered in memory
	spilled bool
	w       *spillWriter
}

// keySrc resolves one join-key value from a left chunk row: a column of
// the chunk, read straight from its vector, or a constant. asEquiPair
// admits no other left-hand shapes.
type keySrc struct {
	col int // left column position; -1 for a literal
	lit value.Value
}

func (s keySrc) value(c *chunk, r int) value.Value {
	if s.col >= 0 {
		return c.Value(s.col, r)
	}
	return s.lit
}

// keySrcFor compiles the left side of an equality pair against the left
// schema.
func keySrcFor(p equiPair, left *Schema) keySrc {
	if c, ok := p.left.(*ColumnRef); ok {
		if i, err := left.Find(c); err == nil {
			return keySrc{col: i}
		}
	}
	return keySrc{col: -1, lit: p.left.(*Literal).Val}
}

// keySrcsFor compiles the probe key of a join: for each right column in
// cols, the first pair on that column supplies the value.
func keySrcsFor(pairs []equiPair, cols []int, left *Schema) []keySrc {
	var srcs []keySrc
	for _, pos := range cols {
		for _, p := range pairs {
			if p.rightCol == pos {
				srcs = append(srcs, keySrcFor(p, left))
				break
			}
		}
	}
	return srcs
}

// encodeKey appends the encoded probe key of left row r to buf.
func encodeKey(buf []byte, srcs []keySrc, c *chunk, r int) []byte {
	for _, s := range srcs {
		buf = s.value(c, r).EncodeKey(buf)
	}
	return buf
}

// leftCursor steps a join through the logical rows of its left input, a
// chunk at a time. The current chunk stays valid until next pulls the
// following one, so a join may keep copying from row while it fills
// several output chunks. Once the input is exhausted the cursor drops
// its chunk: the producer may already have recycled it.
type leftCursor struct {
	in  batchIter
	c   *chunk
	pos int // logical position of the row after the current one
	row int // physical index of the current row in c
	eof bool
}

// next advances to the following left row; fresh reports that the row
// opened a new chunk, ok is false at end of stream.
func (l *leftCursor) next() (ok, fresh bool, err error) {
	for l.c == nil || l.pos >= l.c.Rows() {
		if l.eof {
			return false, false, nil
		}
		c, err := l.in.NextChunk()
		if err != nil {
			return false, false, err
		}
		if c == nil {
			l.c, l.eof = nil, true
			return false, false, nil
		}
		l.c, l.pos, fresh = c, 0, true
	}
	l.row = l.c.RowIdx(l.pos)
	l.pos++
	return true, fresh, nil
}

// partHashJoinIter is the batched partitioned hash join. The build side
// hash-partitions the right source by join key into parts partitions
// (rows stay in right-source order inside each partition, so per-key
// match lists — and therefore results — are byte-identical to a single
// hash table's); the per-partition hash tables then build
// concurrently under the query's worker budget. The probe side consumes
// left chunks, computes each row's key against the column vectors
// directly, and emits joined rows into a reused output chunk.
type partHashJoinIter struct {
	es        *execState
	left      leftCursor
	outSchema *Schema
	cols      []int
	srcs      []keySrc
	rightSrc  func() batchIter
	parts     int
	op        *obs.OpStats // the join's trace line (spill annotation)

	built      bool
	partitions []joinPartition
	resident   int64 // estimated bytes buffered across unspilled partitions
	spilledN   int
	anySpilled bool

	out     *chunk
	keyBuf  []byte
	matches []value.Tuple // build rows matching the current left row
	mpos    int

	// Spilled-probe state, valid while anySpilled: per-left-chunk match
	// lists indexed by logical row, and the per-partition probe lists
	// that batch spilled lookups so each touched spill file loads once
	// per chunk.
	rowMatches  [][]value.Tuple
	spillProbes [][]spillProbe
}

// spillProbe defers one left row's lookup into a spilled partition until
// the whole chunk's probes are grouped.
type spillProbe struct {
	pos int // logical row in the current left chunk
	key string
}

func newPartHashJoin(es *execState, left batchIter, outSchema *Schema, pairs []equiPair, rightSrc func() batchIter, parts int, op *obs.OpStats) *partHashJoinIter {
	if parts < 1 {
		parts = 1
	}
	cols := pairCols(pairs)
	return &partHashJoinIter{
		es: es, left: leftCursor{in: left}, outSchema: outSchema,
		cols: cols, srcs: keySrcsFor(pairs, cols, left.Schema()),
		rightSrc: rightSrc, parts: parts, op: op,
	}
}

func (h *partHashJoinIter) Schema() *Schema { return h.outSchema }

// build consumes the right source, partitioning rows by key hash, then
// builds the per-partition hash tables (concurrently when the query has
// workers to spare — partitions are independent, so the result does not
// depend on scheduling). Under a memory budget, whenever the estimated
// resident build size crosses it the largest buffered partition spills
// to a temp file; the spill decision runs in this single-threaded loop
// over the deterministic right stream, so which partitions spill — and
// therefore the result bytes — do not depend on worker count.
func (h *partHashJoinIter) build() error {
	h.built = true
	h.partitions = make([]joinPartition, h.parts)
	src := h.rightSrc()
	budget := int64(0)
	rowCost := int64(0)
	if h.es != nil && h.es.memBudget > 0 {
		budget = h.es.memBudget
	}
	var kb []byte
	for {
		c, err := src.NextChunk()
		if err != nil {
			return err
		}
		if c == nil {
			break
		}
		if rowCost == 0 {
			rowCost = spillRowBytes(len(c.schema.Cols))
		}
		for k, n := 0, c.Rows(); k < n; k++ {
			if err := h.es.poll(); err != nil {
				return err
			}
			r := c.RowIdx(k)
			kb = kb[:0]
			for _, pos := range h.cols {
				kb = c.Value(pos, r).EncodeKey(kb)
			}
			p := &h.partitions[int(fnvHash(kb)%uint64(h.parts))]
			if p.spilled {
				if err := p.w.add(string(kb), c.TupleAt(r)); err != nil {
					return err
				}
				continue
			}
			p.keys = append(p.keys, string(kb))
			p.rows = append(p.rows, c.TupleAt(r))
			cost := rowCost + int64(len(kb))
			p.bytes += cost
			h.resident += cost
			for budget > 0 && h.resident > budget {
				if err := h.spillLargest(); err != nil {
					return err
				}
			}
		}
	}
	for i := range h.partitions {
		p := &h.partitions[i]
		if !p.spilled {
			continue
		}
		if err := p.w.flush(); err != nil {
			return err
		}
		if h.es != nil && h.es.reg != nil {
			h.es.reg.Exec.JoinSpillBytes.Add(uint64(p.w.bytes()))
		}
	}
	if h.spilledN > 0 {
		h.op.Notef("spilled=%d parts", h.spilledN)
	}
	buildOne := func(p *joinPartition) {
		if p.spilled {
			return
		}
		p.table = make(map[string][]value.Tuple, len(p.keys))
		for i, k := range p.keys {
			p.table[k] = append(p.table[k], p.rows[i])
		}
	}
	workers := 1
	if h.es != nil && h.es.workers > 1 {
		workers = h.es.workers
	}
	if workers > h.parts {
		workers = h.parts
	}
	if workers <= 1 {
		for i := range h.partitions {
			buildOne(&h.partitions[i])
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= h.parts {
					return
				}
				buildOne(&h.partitions[i])
			}
		}()
	}
	wg.Wait()
	return nil
}

// spillLargest moves the largest buffered partition (lowest index on
// ties — deterministic) out to a temp file, writing its (key, row)
// records in stream order, and frees its resident buffers. The file is
// registered with the query for cleanup at finish, success or error.
func (h *partHashJoinIter) spillLargest() error {
	best := -1
	for i := range h.partitions {
		p := &h.partitions[i]
		if p.spilled || len(p.keys) == 0 {
			continue
		}
		if best < 0 || p.bytes > h.partitions[best].bytes {
			best = i
		}
	}
	if best < 0 {
		// Everything already spilled; nothing left to shed.
		return nil
	}
	p := &h.partitions[best]
	path := fmt.Sprintf("%s.p%d", h.es.spillBase, best)
	f, err := h.es.fs.OpenFile(path)
	if err != nil {
		return fmt.Errorf("sql: join spill open: %w", err)
	}
	h.es.addSpillFile(path, f)
	p.w = newSpillWriter(f)
	for i, k := range p.keys {
		if err := p.w.add(k, p.rows[i]); err != nil {
			return err
		}
	}
	p.spilled = true
	h.anySpilled = true
	h.spilledN++
	h.resident -= p.bytes
	p.bytes = 0
	p.keys, p.rows = nil, nil
	if h.es.reg != nil {
		h.es.reg.Exec.JoinSpillParts.Inc()
	}
	return nil
}

// probeChunkSpilled probes every row of a new left chunk up front: rows
// landing in resident partitions resolve against the in-memory tables
// immediately, rows landing in spilled partitions are grouped per
// partition so each touched spill file is read back exactly once per
// chunk (ascending partition order — deterministic I/O), then match
// lists are recorded per logical row. NextChunk then emits rows in left
// stream order, so results are byte-identical to an unspilled run.
func (h *partHashJoinIter) probeChunkSpilled(c *chunk) error {
	n := c.Rows()
	if cap(h.rowMatches) < n {
		h.rowMatches = make([][]value.Tuple, n)
	}
	h.rowMatches = h.rowMatches[:n]
	if h.spillProbes == nil {
		h.spillProbes = make([][]spillProbe, h.parts)
	}
	for k := 0; k < n; k++ {
		if err := h.es.poll(); err != nil {
			return err
		}
		h.keyBuf = encodeKey(h.keyBuf[:0], h.srcs, c, c.RowIdx(k))
		key := h.keyBuf
		pi := int(fnvHash(key) % uint64(h.parts))
		p := &h.partitions[pi]
		if !p.spilled {
			h.rowMatches[k] = p.table[string(key)]
			continue
		}
		h.rowMatches[k] = nil
		h.spillProbes[pi] = append(h.spillProbes[pi], spillProbe{pos: k, key: string(key)})
	}
	for pi := 0; pi < h.parts; pi++ {
		probes := h.spillProbes[pi]
		if len(probes) == 0 {
			continue
		}
		p := &h.partitions[pi]
		table, err := readSpill(p.w.f, p.w.bytes())
		if err != nil {
			return err
		}
		if h.es.reg != nil {
			h.es.reg.Exec.JoinSpillLoads.Inc()
		}
		for _, pr := range probes {
			h.rowMatches[pr.pos] = table[pr.key]
		}
		h.spillProbes[pi] = probes[:0]
	}
	return nil
}

func (h *partHashJoinIter) NextChunk() (*chunk, error) {
	if !h.built {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	if h.out == nil {
		h.out = newChunk(h.outSchema, defaultChunkCap)
	}
	h.out.Reset()
	for {
		// Expand the pending matches of the current left row; a row with
		// many matches may span output chunks.
		for h.mpos < len(h.matches) {
			if h.out.Full() {
				return h.out, nil
			}
			h.out.appendJoined(h.left.c, h.left.row, h.matches[h.mpos])
			h.mpos++
		}
		ok, fresh, err := h.left.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return h.out.orNil(), nil
		}
		if fresh && h.anySpilled {
			if err := h.probeChunkSpilled(h.left.c); err != nil {
				return nil, err
			}
		}
		if err := h.es.poll(); err != nil {
			return nil, err
		}
		h.mpos = 0
		if h.anySpilled {
			// Match lists were resolved for the whole chunk up front.
			h.matches = h.rowMatches[h.left.pos-1]
			continue
		}
		h.keyBuf = encodeKey(h.keyBuf[:0], h.srcs, h.left.c, h.left.row)
		part := &h.partitions[int(fnvHash(h.keyBuf)%uint64(h.parts))]
		h.matches = part.table[string(h.keyBuf)]
	}
}

// indexLoopJoin is the batched index nested-loop join. For each row of a
// left chunk it encodes the probe key straight from the column vectors,
// looks it up once in the right table's index, and decodes the matching
// heap records, in index order, into a reused right chunk. Pushed-down
// right filters and the equality pairs the index does not cover narrow
// that chunk's selection; the survivors are appended after the left row
// to the output chunk. One lookup per left row, the same heap fetches
// and the same match order keep results byte-identical to a row-at-a-
// time probe.
type indexLoopJoin struct {
	es        *execState
	left      leftCursor
	rt        *TableInfo
	ix        *IndexInfo
	outSchema *Schema
	keys      []keySrc    // probe key, in index column order
	checks    []pairCheck // pairs on columns the index does not cover
	filters   []chunkPred // pushed-down right-binding conjuncts

	right   *chunk // matches of the current left row
	mpos    int    // next logical row of right to emit
	out     *chunk
	keyBuf  []byte
	rids    []heap.RID
	sel     []int
	scratch Row
}

// pairCheck is one join equality verified per match: the left value must
// be non-null and equal to the right row's column.
type pairCheck struct {
	src      keySrc
	rightCol int
}

func newIndexLoopJoin(es *execState, left batchIter, rt *TableInfo, rightSchema, outSchema *Schema, ix *IndexInfo, pairs []equiPair, rightFilter []Expr) *indexLoopJoin {
	j := &indexLoopJoin{
		es: es, left: leftCursor{in: left}, rt: rt, ix: ix, outSchema: outSchema,
		keys:    keySrcsFor(pairs, ix.ColPos, left.Schema()),
		right:   newChunk(rightSchema, defaultChunkCap),
		out:     newChunk(outSchema, defaultChunkCap),
		sel:     make([]int, 0, defaultChunkCap),
		scratch: Row{Schema: rightSchema, Values: make(value.Tuple, len(rightSchema.Cols))},
	}
	for _, p := range pairs {
		if !slices.Contains(ix.ColPos, p.rightCol) {
			j.checks = append(j.checks, pairCheck{src: keySrcFor(p, left.Schema()), rightCol: p.rightCol})
		}
	}
	for _, f := range rightFilter {
		j.filters = append(j.filters, newChunkPred(f, rightSchema))
	}
	return j
}

func (j *indexLoopJoin) Schema() *Schema { return j.outSchema }

func (j *indexLoopJoin) NextChunk() (*chunk, error) {
	j.out.Reset()
	for {
		for j.mpos < j.right.Rows() {
			if j.out.Full() {
				return j.out, nil
			}
			j.out.appendPair(j.left.c, j.left.row, j.right, j.right.RowIdx(j.mpos))
			j.mpos++
		}
		ok, _, err := j.left.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return j.out.orNil(), nil
		}
		if err := j.probe(); err != nil {
			return nil, err
		}
		j.mpos = 0
	}
}

// probe fills the right chunk with the matches of the current left row.
func (j *indexLoopJoin) probe() error {
	if err := j.es.poll(); err != nil {
		return err
	}
	j.keyBuf = encodeKey(j.keyBuf[:0], j.keys, j.left.c, j.left.row)
	j.rids = j.rids[:0]
	collect := func(v []byte) bool {
		j.rids = append(j.rids, ridFromBytes(v))
		return true
	}
	if j.ix.Hash != nil {
		j.es.hashLookup()
		j.ix.Hash.Lookup(j.keyBuf, collect)
	} else {
		j.es.btreeSearch()
		if err := j.ix.BTree.ScanPrefix(j.keyBuf, func(_, v []byte) bool { return collect(v) }); err != nil {
			return err
		}
	}
	j.right.Reset()
	for _, rid := range j.rids {
		rec, err := j.rt.Heap.Get(rid)
		if err != nil {
			return err
		}
		if err := j.right.AppendRecord(rec); err != nil {
			return err
		}
	}
	if len(j.filters) == 0 && len(j.checks) == 0 {
		return nil
	}
	j.sel = j.sel[:0] // non-nil: an empty selection must mean "no rows"
	for r := 0; r < j.right.n; r++ {
		keep, err := j.matches(r)
		if err != nil {
			return err
		}
		if keep {
			j.sel = append(j.sel, r)
		}
	}
	j.right.sel = j.sel
	return nil
}

// matches reports whether right row r passes the pushed-down filters and
// the equality pairs the index lookup did not enforce.
func (j *indexLoopJoin) matches(r int) (bool, error) {
	for i := range j.filters {
		if ok, err := j.filters[i].holds(j.right, r, j.scratch); err != nil || !ok {
			return false, err
		}
	}
	for _, c := range j.checks {
		lv, rv := c.src.value(j.left.c, j.left.row), j.right.Value(c.rightCol, r)
		if lv.IsNull() || rv.IsNull() || value.Compare(lv, rv) != 0 {
			return false, nil
		}
	}
	return true, nil
}

// crossJoin is the nested-loop join for a binding with no usable
// equality: the right side materialises once, in stream order, and every
// left row pairs with every right row. Predicates are applied by the
// caller's filters.
type crossJoin struct {
	es        *execState
	left      leftCursor
	outSchema *Schema
	rightSrc  func() batchIter

	right []value.Tuple
	built bool
	rpos  int // next right row to pair with the current left row
	out   *chunk
}

func (n *crossJoin) Schema() *Schema { return n.outSchema }

func (n *crossJoin) build() error {
	n.built = true
	src := n.rightSrc()
	for {
		c, err := src.NextChunk()
		if err != nil || c == nil {
			return err
		}
		for k, cn := 0, c.Rows(); k < cn; k++ {
			n.right = append(n.right, c.TupleAt(c.RowIdx(k)))
		}
	}
}

func (n *crossJoin) NextChunk() (*chunk, error) {
	if !n.built {
		if err := n.build(); err != nil {
			return nil, err
		}
		n.rpos = len(n.right) // no current left row yet
		n.out = newChunk(n.outSchema, defaultChunkCap)
	}
	n.out.Reset()
	for {
		for n.rpos < len(n.right) {
			if n.out.Full() {
				return n.out, nil
			}
			if err := n.es.poll(); err != nil {
				return nil, err
			}
			n.out.appendJoined(n.left.c, n.left.row, n.right[n.rpos])
			n.rpos++
		}
		ok, _, err := n.left.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return n.out.orNil(), nil
		}
		n.rpos = 0
	}
}
