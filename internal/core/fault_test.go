package core

// Engine-level fault tests: I/O errors and power cuts injected while the
// warehouse is harnessed or incrementally updated. Under a mid-harness
// fault the contract is the chunked-commit one: the warehouse holds a
// committed prefix, stays structurally consistent, and a subsequent
// harness replaces it wholesale. An incremental update is one batch: a
// fault leaves the old harvest or the new one, never a mix.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"xomatiq/internal/bio"
	"xomatiq/internal/faultfs"
	"xomatiq/internal/hounds"
)

const faultWH = "hlx_enzyme.DEFAULT"

func faultEngine(t testing.TB, fs *faultfs.FS) *Engine {
	t.Helper()
	cfg := NewConfig("wh.db")
	cfg.FS = fs
	cfg.PoolPages = 256
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func registerEnzyme(t testing.TB, e *Engine, flat string) {
	t.Helper()
	src := hounds.NewSimSource("enzyme", flat)
	if err := e.RegisterSource(faultWH, src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
}

// TestHarnessFaultSweep injects one I/O error at sampled op offsets
// inside Harness. Whatever the offset, the warehouse must stay
// consistent (a committed prefix of chunks), and the next harness must
// replace it with the full harvest.
func TestHarnessFaultSweep(t *testing.T) {
	flat := enzymeFlat(t, bio.GenEnzymes(3, bio.GenOptions{Seed: 5}))

	// Fault-free run: learn the op span of a harness and the doc count.
	fs := faultfs.New(77)
	e := faultEngine(t, fs)
	registerEnzyme(t, e, flat)
	start := fs.Ops()
	wantDocs, err := e.Harness(faultWH)
	if err != nil {
		t.Fatal(err)
	}
	harnessOps := fs.Ops() - start
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if harnessOps < 10 {
		t.Fatalf("harness consumed %d ops; sweep would be vacuous", harnessOps)
	}

	stride := harnessOps/25 + 1
	for k := int64(0); k < harnessOps; k += stride {
		fs := faultfs.New(77)
		e := faultEngine(t, fs)
		registerEnzyme(t, e, flat)
		fs.FailAt(fs.Ops()+k, faultfs.FaultErr)

		if _, herr := e.Harness(faultWH); herr != nil && !errors.Is(herr, faultfs.ErrInjected) {
			t.Fatalf("op +%d: harness err = %v, want ErrInjected in chain", k, herr)
		}
		if cerr := e.DB().CheckConsistency(); cerr != nil {
			t.Fatalf("op +%d: inconsistent after harness fault: %v", k, cerr)
		}
		// Recovery contract: harness again, wholesale.
		n, rerr := e.Harness(faultWH)
		if rerr != nil {
			t.Fatalf("op +%d: re-harness after fault: %v", k, rerr)
		}
		if n != wantDocs {
			t.Fatalf("op +%d: re-harness loaded %d docs, want %d", k, n, wantDocs)
		}
		got, derr := e.DocCount(faultWH)
		if derr != nil || got != wantDocs {
			t.Fatalf("op +%d: DocCount = %d, %v; want %d", k, got, derr, wantDocs)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("op +%d: close: %v", k, err)
		}
	}
}

// TestUpdateFaultSweep injects one I/O error at sampled op offsets
// inside an incremental Update. The delta applies in one batch, so after
// every fault the warehouse must hold exactly the old harvest or exactly
// the new one — judged by the entry count and the revised entry's text —
// and a plain retry of Update must then apply the whole delta.
func TestUpdateFaultSweep(t *testing.T) {
	entries := bio.GenEnzymes(4, bio.GenOptions{Seed: 8})
	flat := enzymeFlat(t, entries)
	mod := make([]*bio.EnzymeEntry, len(entries))
	copy(mod, entries)
	mod = append(mod[:1], mod[2:]...) // drop one entry
	changed := *mod[1]                // revise another
	changed.Comments = append([]string{"Revised note."}, changed.Comments...)
	mod[1] = &changed
	flat2 := enzymeFlat(t, mod)

	setup := func(fs *faultfs.FS) *Engine {
		e := faultEngine(t, fs)
		src := hounds.NewSimSource("enzyme", flat)
		if err := e.RegisterSource(faultWH, src, hounds.EnzymeTransformer{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Harness(faultWH); err != nil {
			t.Fatal(err)
		}
		src.Publish(flat2)
		return e
	}
	// version reports which harvest the warehouse holds: "old", "new",
	// or a description of the mix it must never be.
	version := func(e *Engine) string {
		n, err := e.DocCount(faultWH)
		if err != nil {
			return fmt.Sprintf("DocCount error: %v", err)
		}
		xml, err := e.Document(faultWH, changed.ID)
		if err != nil {
			return fmt.Sprintf("%d docs, revised entry unreadable: %v", n, err)
		}
		revised := strings.Contains(xml, "Revised note.")
		switch {
		case n == len(entries) && !revised:
			return "old"
		case n == len(mod) && revised:
			return "new"
		}
		return fmt.Sprintf("%d docs, revised=%v", n, revised)
	}

	fs := faultfs.New(99)
	e := setup(fs)
	start := fs.Ops()
	cs, err := e.Update(faultWH)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Empty() {
		t.Fatal("reference update applied no delta; test is vacuous")
	}
	updateOps := fs.Ops() - start
	if v := version(e); v != "new" {
		t.Fatalf("reference update left %s", v)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if updateOps < 5 {
		t.Fatalf("update consumed %d ops; sweep would be vacuous", updateOps)
	}

	stride := updateOps/25 + 1
	for k := int64(0); k < updateOps; k += stride {
		fs := faultfs.New(99)
		e := setup(fs)
		fs.FailAt(fs.Ops()+k, faultfs.FaultErr)

		_, uerr := e.Update(faultWH)
		if uerr != nil && !errors.Is(uerr, faultfs.ErrInjected) {
			t.Fatalf("op +%d: update err = %v, want ErrInjected in chain", k, uerr)
		}
		if cerr := e.DB().CheckConsistency(); cerr != nil {
			t.Fatalf("op +%d: inconsistent after update fault: %v", k, cerr)
		}
		v := version(e)
		if v != "old" && v != "new" {
			t.Fatalf("op +%d (update err %v): warehouse holds a half-applied delta: %s", k, uerr, v)
		}
		if uerr == nil && v != "new" {
			t.Fatalf("op +%d: update reported success but the warehouse holds the %s harvest", k, v)
		}
		if _, rerr := e.Update(faultWH); rerr != nil {
			t.Fatalf("op +%d: retried update: %v", k, rerr)
		}
		if v := version(e); v != "new" {
			t.Fatalf("op +%d: retried update left %s", k, v)
		}
		if cerr := e.DB().CheckConsistency(); cerr != nil {
			t.Fatalf("op +%d: inconsistent after retried update: %v", k, cerr)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("op +%d: close: %v", k, err)
		}
	}
}

// TestHarnessCrashReopen cuts power mid-harness, reboots, and reopens
// the warehouse: recovery must land on a consistent committed prefix,
// and a fresh harness must complete the load.
func TestHarnessCrashReopen(t *testing.T) {
	flat := enzymeFlat(t, bio.GenEnzymes(3, bio.GenOptions{Seed: 5}))

	fs := faultfs.New(13)
	e := faultEngine(t, fs)
	registerEnzyme(t, e, flat)
	start := fs.Ops()
	wantDocs, err := e.Harness(faultWH)
	if err != nil {
		t.Fatal(err)
	}
	harnessOps := fs.Ops() - start
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	fs = faultfs.New(13)
	e = faultEngine(t, fs)
	registerEnzyme(t, e, flat)
	fs.CrashAt(fs.Ops() + harnessOps/2)
	if _, herr := e.Harness(faultWH); !errors.Is(herr, faultfs.ErrCrashed) {
		t.Fatalf("harness through the cut err = %v, want ErrCrashed in chain", herr)
	}
	// The process is dead; abandon the engine and reboot the disk.
	e2 := faultEngine(t, fs.Reboot())
	defer e2.Close()
	if cerr := e2.DB().CheckConsistency(); cerr != nil {
		t.Fatalf("inconsistent after crash reopen: %v", cerr)
	}
	got, derr := e2.DocCount(faultWH)
	if derr != nil {
		t.Fatal(derr)
	}
	if got < 0 || got > wantDocs {
		t.Fatalf("recovered DocCount = %d, want a committed prefix of %d", got, wantDocs)
	}
	registerEnzyme(t, e2, flat)
	n, rerr := e2.Harness(faultWH)
	if rerr != nil {
		t.Fatalf("harness after crash recovery: %v", rerr)
	}
	if n != wantDocs {
		t.Fatalf("post-crash harness loaded %d docs, want %d", n, wantDocs)
	}
	res, qerr := e2.Query(`FOR $e IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
RETURN $e/enzyme_id`)
	if qerr != nil {
		t.Fatalf("query after crash recovery: %v", qerr)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query after crash recovery returned no rows")
	}
}
