package sql

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

func TestRollbackDiscardsBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rb.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT, b TEXT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'keep')`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 50; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'drop')`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`DELETE FROM t WHERE a = 1`); err != nil {
		t.Fatal(err)
	}
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}

	rows, err := db.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Rows[0][0].Int(); got != 5 {
		t.Fatalf("after rollback COUNT(*) = %d, want 5", got)
	}
	rows, err = db.Query(`SELECT b FROM t WHERE a = 1`)
	if err != nil || len(rows.Rows) != 1 {
		t.Fatalf("rolled-back delete: rows = %v, %v", rows, err)
	}

	// A second rollback without an open batch errors.
	if err := db.Rollback(); err == nil {
		t.Error("rollback with no open batch should fail")
	}

	// The engine stays usable: a new batch commits normally.
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (99, 'after')`); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err = db.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Rows[0][0].Int(); got != 6 {
		t.Fatalf("after new commit COUNT(*) = %d, want 6", got)
	}

	// A batch that wrote nothing commits or rolls back without touching
	// the log, publishing an epoch or replaying the WAL.
	epoch, logSize, gen := db.CurrentEpoch(), db.log.Size(), db.rollbackGen.Load()
	for _, end := range []func() error{db.Commit, db.Rollback} {
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	if db.CurrentEpoch() != epoch || db.log.Size() != logSize || db.rollbackGen.Load() != gen {
		t.Error("an empty batch touched the log, the epoch or the rollback generation")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: only committed state survives.
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err = db2.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Rows[0][0].Int(); got != 6 {
		t.Fatalf("reopened COUNT(*) = %d, want 6", got)
	}
}

func TestRollbackPreservesIndexes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rbix.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT, b TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX ix_a ON t (a)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'x')`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (100, 'y')`); err != nil {
		t.Fatal(err)
	}
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Index lookups reflect the rolled-back state.
	rows, err := db.Query(`SELECT b FROM t WHERE a = 7`)
	if err != nil || len(rows.Rows) != 1 {
		t.Fatalf("indexed lookup after rollback = %v, %v", rows, err)
	}
	rows, err = db.Query(`SELECT b FROM t WHERE a = 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 0 {
		t.Fatalf("rolled-back row visible via index: %v", rows.Rows)
	}
}

func TestQueryContextCancelled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cancel.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE big (a INT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO big VALUES (%d)`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT COUNT(*) FROM big`); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan err = %v, want context.Canceled", err)
	}
	// The same query succeeds with a live context.
	rows, err := db.QueryContext(context.Background(), `SELECT COUNT(*) FROM big`)
	if err != nil || rows.Rows[0][0].Int() != 2000 {
		t.Fatalf("live query = %v, %v", rows, err)
	}
}
