package sql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"xomatiq/internal/value"
)

// seedNumbers creates a table with a secondary index and n rows.
func seedNumbers(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE nums (k INT, grp TEXT, v TEXT)`)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO nums VALUES (%d, 'g%d', 'val-%04d')`, i, i%7, i))
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE INDEX idx_nums ON nums (k)`)
	mustExec(t, db, `CREATE INDEX idx_grp ON nums (grp, v)`)
}

func TestInListUsesIndexAndIsCorrect(t *testing.T) {
	db := openDB(t)
	seedNumbers(t, db, 500)
	r := mustQuery(t, db, `SELECT v FROM nums WHERE k IN (3, 100, 499, 9999) ORDER BY v`)
	want := []string{"val-0003", "val-0100", "val-0499"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("IN query = %v", got)
	}
	// NOT IN must not use the point-lookup path.
	r = mustQuery(t, db, `SELECT COUNT(*) FROM nums WHERE k NOT IN (3, 100)`)
	if rowStrings(r)[0] != "498" {
		t.Errorf("NOT IN count = %v", rowStrings(r))
	}
	// IN on a composite index's leading column plus a range.
	r = mustQuery(t, db, `SELECT COUNT(*) FROM nums WHERE grp IN ('g0', 'g3') AND v >= 'val-0100'`)
	want2 := 0
	for i := 0; i < 500; i++ {
		if (i%7 == 0 || i%7 == 3) && fmt.Sprintf("val-%04d", i) >= "val-0100" {
			want2++
		}
	}
	if rowStrings(r)[0] != fmt.Sprint(want2) {
		t.Errorf("IN+range = %v, want %d", rowStrings(r), want2)
	}
}

func TestInListEmptyAndMiss(t *testing.T) {
	db := openDB(t)
	seedNumbers(t, db, 50)
	r := mustQuery(t, db, `SELECT COUNT(*) FROM nums WHERE k IN (1000, 2000)`)
	if rowStrings(r)[0] != "0" {
		t.Errorf("miss = %v", rowStrings(r))
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE pairs (id INT, partner INT, name TEXT)`)
	mustExec(t, db, `INSERT INTO pairs VALUES (1, 2, 'alpha'), (2, 1, 'beta'), (3, 3, 'gamma')`)
	r := mustQuery(t, db, `SELECT a.name, b.name FROM pairs a JOIN pairs b ON a.partner = b.id ORDER BY a.id`)
	want := []string{"alpha|beta", "beta|alpha", "gamma|gamma"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("self join = %v", got)
	}
}

func TestOrderByMultipleMixedDirections(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1,'x'), (1,'y'), (2,'x'), (2,'y')`)
	r := mustQuery(t, db, `SELECT a, b FROM t ORDER BY a DESC, b ASC`)
	want := []string{"2|x", "2|y", "1|x", "1|y"}
	if got := rowStrings(r); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("mixed order = %v", got)
	}
}

func TestPushdownPreservesCrossBindingSemantics(t *testing.T) {
	// A conjunct mentioning both tables must not be pushed into either
	// side; verify a filter that would change results if mis-pushed.
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE l (id INT, v INT)`)
	mustExec(t, db, `CREATE TABLE r (id INT, v INT)`)
	mustExec(t, db, `INSERT INTO l VALUES (1, 10), (2, 20)`)
	mustExec(t, db, `INSERT INTO r VALUES (1, 5), (2, 30)`)
	res := mustQuery(t, db, `SELECT l.id FROM l, r WHERE l.id = r.id AND l.v > r.v`)
	if len(res.Rows) != 1 || rowStrings(res)[0] != "1" {
		t.Errorf("cross-binding comparison = %v", rowStrings(res))
	}
}

func TestUnqualifiedAmbiguousNotPushed(t *testing.T) {
	// "v" exists in both tables: a conjunct on the bare name is
	// ambiguous and must error at evaluation, not be silently pushed.
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE l (id INT, v INT)`)
	mustExec(t, db, `CREATE TABLE r (id INT, v INT)`)
	mustExec(t, db, `INSERT INTO l VALUES (1, 10)`)
	mustExec(t, db, `INSERT INTO r VALUES (1, 10)`)
	if _, err := db.Query(`SELECT l.id FROM l, r WHERE l.id = r.id AND v = 10`); err == nil {
		t.Error("ambiguous column should error")
	}
}

func TestDeleteUpdateViaIndexPath(t *testing.T) {
	db := openDB(t)
	seedNumbers(t, db, 200)
	res := mustExec(t, db, `DELETE FROM nums WHERE k IN (10, 20, 30)`)
	if res.RowsAffected != 3 {
		t.Errorf("deleted %d", res.RowsAffected)
	}
	res = mustExec(t, db, `UPDATE nums SET v = 'touched' WHERE k = 40`)
	if res.RowsAffected != 1 {
		t.Errorf("updated %d", res.RowsAffected)
	}
	r := mustQuery(t, db, `SELECT COUNT(*) FROM nums`)
	if rowStrings(r)[0] != "197" {
		t.Errorf("count = %v", rowStrings(r))
	}
	r = mustQuery(t, db, `SELECT v FROM nums WHERE k = 40`)
	if rowStrings(r)[0] != "touched" {
		t.Errorf("update lost = %v", rowStrings(r))
	}
	// Index consistency after DML through the index path.
	r = mustQuery(t, db, `SELECT COUNT(*) FROM nums WHERE k IN (10, 20, 30, 40)`)
	if rowStrings(r)[0] != "1" {
		t.Errorf("index stale = %v", rowStrings(r))
	}
}

// TestDMLAcrossChunks runs DELETE and UPDATE whose matches span several
// chunks and heap pages, through an index path and a sequential path:
// each match is identified by the scan's RID lane, so the surviving rows
// must be exactly the model's and the indexes must agree with the heap.
func TestDMLAcrossChunks(t *testing.T) {
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE wide (k INT, grp TEXT, v TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_wide_k ON wide (k)`)
	const n = 1200
	type row struct {
		k      int
		grp, v string
	}
	model := map[int]row{} // by original k
	var tups []value.Tuple
	for i := 0; i < n; i++ {
		r := row{i, fmt.Sprintf("g%d", i%3), fmt.Sprintf("payload-%04d-%s", i, strings.Repeat("p", 48))}
		model[i] = r
		tups = append(tups, value.Tuple{value.NewInt(int64(r.k)), value.NewText(r.grp), value.NewText(r.v)})
	}
	if err := db.InsertBatch("wide", tups); err != nil {
		t.Fatal(err)
	}
	if pages := db.cat.tables["wide"].Heap.NumPages(); pages < 4 {
		t.Fatalf("seed spans %d heap pages, want several", pages)
	}
	steps := []struct {
		where, how string // the DML's WHERE and the access path it must take
		stmt       string
		apply      func(r row) (row, bool) // new row, keep
		matches    int
	}{
		{`k >= 100 AND k < 700`, "index idx_wide_k",
			`UPDATE wide SET k = k + 10000, v = 'moved' WHERE k >= 100 AND k < 700`,
			func(r row) (row, bool) {
				if r.k >= 100 && r.k < 700 {
					r.k += 10000
					r.v = "moved"
				}
				return r, true
			}, 600},
		{`k >= 10300 AND k < 10650`, "index idx_wide_k",
			`DELETE FROM wide WHERE k >= 10300 AND k < 10650`,
			func(r row) (row, bool) { return r, !(r.k >= 10300 && r.k < 10650) }, 350},
		{`grp = 'g1'`, "sequential",
			`UPDATE wide SET v = 'seq' WHERE grp = 'g1'`,
			func(r row) (row, bool) {
				if r.grp == "g1" {
					r.v = "seq"
				}
				return r, true
			}, 283},
		{`grp <> 'g1'`, "sequential",
			`DELETE FROM wide WHERE grp <> 'g1'`,
			func(r row) (row, bool) { return r, r.grp == "g1" }, 567},
	}
	for _, st := range steps {
		plan, err := db.Explain(`SELECT k FROM wide WHERE ` + st.where)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, st.how) {
			t.Fatalf("%s: access path is not %q:\n%s", st.where, st.how, plan)
		}
		if res := mustExec(t, db, st.stmt); res.RowsAffected != st.matches {
			t.Fatalf("%s: affected %d rows, want %d", st.stmt, res.RowsAffected, st.matches)
		}
		for id, r := range model {
			if nr, keep := st.apply(r); keep {
				model[id] = nr
			} else {
				delete(model, id)
			}
		}
		var want []string
		for _, r := range model {
			want = append(want, fmt.Sprintf("%d|%s|%s", r.k, r.grp, r.v))
		}
		sort.Strings(want)
		got := rowStrings(mustQuery(t, db, `SELECT k, grp, v FROM wide`))
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("after %s: %d surviving rows differ from the model's %d", st.stmt, len(got), len(want))
		}
		if err := db.CheckConsistency(); err != nil {
			t.Fatalf("after %s: %v", st.stmt, err)
		}
	}
}

func TestResidualAppliedEarlyStillCorrect(t *testing.T) {
	// Three-way join where a cross-binding residual involves only the
	// first two tables; applying it early must not change results.
	db := openDB(t)
	mustExec(t, db, `CREATE TABLE a (id INT, x INT)`)
	mustExec(t, db, `CREATE TABLE b (id INT, x INT)`)
	mustExec(t, db, `CREATE TABLE c (id INT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 1), (2, 5)`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 2), (2, 2)`)
	mustExec(t, db, `INSERT INTO c VALUES (1), (2)`)
	r := mustQuery(t, db, `SELECT a.id, c.id FROM a, b, c
		WHERE a.id = b.id AND a.x < b.x AND c.id = a.id`)
	if len(r.Rows) != 1 || rowStrings(r)[0] != "1|1" {
		t.Errorf("early residual = %v", rowStrings(r))
	}
}

func TestLimitEarlyOutWithoutSort(t *testing.T) {
	db := openDB(t)
	seedNumbers(t, db, 300)
	r := mustQuery(t, db, `SELECT v FROM nums LIMIT 5`)
	if len(r.Rows) != 5 {
		t.Errorf("limit rows = %d", len(r.Rows))
	}
	r = mustQuery(t, db, `SELECT v FROM nums LIMIT 5 OFFSET 298`)
	if len(r.Rows) != 2 {
		t.Errorf("offset tail rows = %d", len(r.Rows))
	}
}
