package sql

import (
	"fmt"
	"strings"
	"testing"

	"xomatiq/internal/value"
)

func chunkTestSchema() *Schema {
	return &Schema{Cols: []SchemaCol{
		{Name: "i", Type: value.KindInt},
		{Name: "t", Type: value.KindText},
		{Name: "f", Type: value.KindFloat},
		{Name: "b", Type: value.KindBool},
		{Name: "y", Type: value.KindBytes},
	}}
}

func chunkTestTuple(i int) value.Tuple {
	if i%7 == 3 {
		return value.Tuple{value.Null, value.NewText(""), value.Null, value.Null, value.Null}
	}
	return value.Tuple{
		value.NewInt(int64(i - 50)),
		value.NewText(fmt.Sprintf("txt-%04d-%s", i, strings.Repeat("a", i%9))),
		value.NewFloat(float64(i) * 1.25),
		value.NewBool(i%2 == 0),
		value.NewBytes([]byte{byte(i), byte(i >> 1), 0xFF}),
	}
}

// appendTestTuple appends one materialised row to a chunk.
func appendTestTuple(c *chunk, t value.Tuple) {
	c.appendTuple(0, t)
	c.n++
}

// TestChunkRecordRoundTrip decodes encoded heap records straight into
// the column vectors and checks every cell, via both TupleAt and Value,
// against the source tuples.
func TestChunkRecordRoundTrip(t *testing.T) {
	sch := chunkTestSchema()
	c := newChunk(sch, 64)
	var want []value.Tuple
	for i := 0; i < 60; i++ {
		tup := chunkTestTuple(i)
		want = append(want, tup)
		if err := c.AppendRecord(tup.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Rows() != 60 {
		t.Fatalf("Rows() = %d, want 60", c.Rows())
	}
	for r, tup := range want {
		got := c.TupleAt(r)
		if fmt.Sprint(got) != fmt.Sprint(tup) {
			t.Fatalf("row %d: got %v, want %v", r, got, tup)
		}
		for col := range tup {
			if fmt.Sprint(c.Value(col, r)) != fmt.Sprint(tup[col]) {
				t.Fatalf("cell (%d,%d): got %v, want %v", col, r, c.Value(col, r), tup[col])
			}
		}
	}
}

// TestChunkRecordPadding pins the schema-evolution contract: records
// narrower than the schema read back with trailing NULLs, wider records
// are rejected.
func TestChunkRecordPadding(t *testing.T) {
	sch := chunkTestSchema()
	c := newChunk(sch, 8)
	short := value.Tuple{value.NewInt(7), value.NewText("x")}
	if err := c.AppendRecord(short.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	got := c.TupleAt(0)
	if got[0].Int() != 7 || got[1].Text() != "x" {
		t.Fatalf("prefix mismatch: %v", got)
	}
	for i := 2; i < len(sch.Cols); i++ {
		if got[i].Kind() != value.KindNull {
			t.Fatalf("col %d not padded to NULL: %v", i, got[i])
		}
	}
	wide := value.Tuple{
		value.NewInt(1), value.NewText("a"), value.NewFloat(1), value.NewBool(true),
		value.NewBytes([]byte{1}), value.NewInt(9),
	}
	if err := c.AppendRecord(wide.Encode(nil)); err == nil {
		t.Fatal("wide record accepted")
	}
}

// TestChunkSelectionVector checks that Rows/RowIdx iterate the logical
// (filtered) view and that narrowing sel in place is safe.
func TestChunkSelectionVector(t *testing.T) {
	c := newChunk(chunkTestSchema(), 32)
	for i := 0; i < 20; i++ {
		appendTestTuple(c, chunkTestTuple(i))
	}
	sel := c.sel[:0]
	for r := 0; r < c.n; r += 2 {
		sel = append(sel, r)
	}
	c.sel = sel
	if c.Rows() != 10 {
		t.Fatalf("Rows() = %d after selection, want 10", c.Rows())
	}
	for k := 0; k < c.Rows(); k++ {
		if c.RowIdx(k) != 2*k {
			t.Fatalf("RowIdx(%d) = %d, want %d", k, c.RowIdx(k), 2*k)
		}
	}
	// Narrow again in place, as a second filter would.
	sel = c.sel[:0]
	for k := 0; k < 10; k++ {
		if 2*k%3 == 0 {
			sel = append(sel, 2*k)
		}
	}
	c.sel = sel
	if c.Rows() != 4 { // physical rows 0, 6, 12, 18
		t.Fatalf("Rows() = %d after second narrowing, want 4", c.Rows())
	}
}

// TestChunkReuseRetentionSafety is the aliasing test of the issue: rows
// handed out by TupleAt/Value must stay correct after the chunk is
// reset and refilled. chunkPoison scribbles over the recycled payload,
// so any illegal aliasing shows up as corrupt values, not flaky stale
// ones.
func TestChunkReuseRetentionSafety(t *testing.T) {
	chunkPoison = true
	defer func() { chunkPoison = false }()
	c := newChunk(chunkTestSchema(), 32)
	var want, kept []value.Tuple
	for i := 0; i < 30; i++ {
		tup := chunkTestTuple(i)
		want = append(want, tup)
		if err := c.AppendRecord(tup.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for r := range want {
		kept = append(kept, c.TupleAt(r))
	}
	// Recycle the chunk the way operators do and refill with other data.
	c.Reset()
	for i := 100; i < 130; i++ {
		if err := c.AppendRecord(chunkTestTuple(i).Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for r, tup := range want {
		if fmt.Sprint(kept[r]) != fmt.Sprint(tup) {
			t.Fatalf("retained row %d corrupted by chunk reuse: got %v, want %v",
				r, kept[r], tup)
		}
	}
}

// TestChunkAppendJoined checks the join output path: left columns copy
// arena bytes chunk-to-chunk, right columns come from a build tuple,
// missing right columns pad with NULL.
func TestChunkAppendJoined(t *testing.T) {
	lsch := &Schema{Cols: []SchemaCol{
		{Name: "lk", Type: value.KindInt}, {Name: "lt", Type: value.KindText},
	}}
	osch := &Schema{Cols: []SchemaCol{
		{Name: "lk", Type: value.KindInt}, {Name: "lt", Type: value.KindText},
		{Name: "rk", Type: value.KindInt}, {Name: "rt", Type: value.KindText},
	}}
	left := newChunk(lsch, 8)
	for i := 0; i < 4; i++ {
		appendTestTuple(left, value.Tuple{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("L%d", i))})
	}
	out := newChunk(osch, 8)
	out.appendJoined(left, 2, value.Tuple{value.NewInt(42), value.NewText("R")})
	out.appendJoined(left, 0, value.Tuple{value.NewInt(7)}) // short right side
	if got := fmt.Sprint(out.TupleAt(0)); got != fmt.Sprint(value.Tuple{
		value.NewInt(2), value.NewText("L2"), value.NewInt(42), value.NewText("R"),
	}) {
		t.Fatalf("joined row 0 = %s", got)
	}
	r1 := out.TupleAt(1)
	if r1[0].Int() != 0 || r1[1].Text() != "L0" || r1[2].Int() != 7 || r1[3].Kind() != value.KindNull {
		t.Fatalf("joined row 1 = %v", r1)
	}
}

// joinProbeQueries drive each batched join operator; op names the plan
// line the query must take. The partitioned hash join cases join big on
// unindexed columns (the 3000-row build side hash-partitions into more
// than one partition, so workers>1 exercises the concurrent build). The
// index nested-loop case probes kb's index with an ON residual over both
// sides, and fans out to three matches per left row so a left row's
// matches straddle output chunks. The cross join pairs the small cj with
// a filtered big, whose rows the join materialises as its right side.
var joinProbeQueries = []struct{ q, op string }{
	{`SELECT a.k, b.v FROM big a, big b WHERE a.k = b.k AND a.grp = 'g2'`, "partitioned hash join"},
	{`SELECT a.k, b.k FROM big a, big b WHERE a.grp = b.grp AND a.k < 13 ORDER BY a.k, b.k LIMIT 40`, "partitioned hash join"},
	{`SELECT COUNT(*) FROM big a, big b WHERE a.k = b.k AND a.grp = b.grp`, "partitioned hash join"},
	{`SELECT a.k, a.v, b.note FROM big a JOIN kb b ON a.k = b.k AND b.note <> a.grp WHERE a.grp = 'g2'`, "index nested loop"},
	{`SELECT c.tag, a.k, a.v FROM cj c, big a WHERE a.grp LIKE 'g5' AND c.n * 200 < a.k`, "nested loop (cross)"},
}

// seedJoinSides adds the two side tables of joinProbeQueries: kb holds
// three rows per big key under an index, cj seven unindexed rows.
func seedJoinSides(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE kb (k INT, note TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_kb_k ON kb (k)`)
	mustExec(t, db, `CREATE TABLE cj (n INT, tag TEXT)`)
	var kb, cj []value.Tuple
	for i := 0; i < n; i++ {
		for _, note := range []string{"g2", fmt.Sprintf("note-%05d", i), fmt.Sprintf("alt-%05d", i)} {
			kb = append(kb, value.Tuple{value.NewInt(int64(i)), value.NewText(note)})
		}
	}
	for i := 0; i < 7; i++ {
		cj = append(cj, value.Tuple{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("tag-%d", i))})
	}
	if err := db.InsertBatch("kb", kb); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch("cj", cj); err != nil {
		t.Fatal(err)
	}
}

// joinRunOpts are the execution settings every join probe must agree
// across: serial and parallel, unbounded and under a small memory
// budget (which forces the hash join to spill).
var joinRunOpts = []ExecOpts{
	{Workers: 1}, {Workers: 4}, {Workers: 1, MemBudget: 1 << 12}, {Workers: 4, MemBudget: 1 << 12},
}

// TestPartitionedJoinDeterminism is the join half of the byte-identity
// bar: every batched join's results — including row order — must be
// identical for any worker count and memory budget.
func TestPartitionedJoinDeterminism(t *testing.T) {
	db := openDB(t)
	seedBig(t, db, 3000)
	seedJoinSides(t, db, 3000)
	for _, jq := range joinProbeQueries {
		plan, err := db.Explain(jq.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, jq.op) {
			t.Fatalf("query does not use the %s:\n%s", jq.op, plan)
		}
		base := rowStrings(mustQueryOpts(t, db, jq.q, joinRunOpts[0]))
		if len(base) == 0 {
			t.Fatalf("%s: probe query returned no rows", jq.q)
		}
		for _, o := range joinRunOpts[1:] {
			got := rowStrings(mustQueryOpts(t, db, jq.q, o))
			if strings.Join(got, "\n") != strings.Join(base, "\n") {
				t.Errorf("%s:\n%+v (%d rows) diverged from serial (%d rows)", jq.q, o, len(got), len(base))
			}
		}
	}
}

// TestPartitionedJoinPoisonedReuse reruns the join probes with
// chunkPoison on: any operator that kept a reference into a recycled
// chunk (scan, filter, build, probe or index-fetch side) returns corrupt
// rows and fails the comparison.
func TestPartitionedJoinPoisonedReuse(t *testing.T) {
	chunkPoison = true
	defer func() { chunkPoison = false }()
	db := openDB(t)
	seedBig(t, db, 1500)
	seedJoinSides(t, db, 1500)
	for _, jq := range joinProbeQueries {
		base := rowStrings(mustQueryOpts(t, db, jq.q, joinRunOpts[0]))
		if len(base) == 0 {
			t.Fatalf("%s: probe query returned no rows", jq.q)
		}
		for _, o := range joinRunOpts {
			got := rowStrings(mustQueryOpts(t, db, jq.q, o))
			for _, r := range got {
				if strings.Contains(r, "\xdb\xdb") {
					t.Fatalf("%s %+v: poison bytes leaked into a result row: %q", jq.q, o, r)
				}
			}
			if strings.Join(got, "\n") != strings.Join(base, "\n") {
				t.Errorf("%s: poisoned rerun %+v diverged from serial", jq.q, o)
			}
		}
	}
}
