package core

import (
	"context"
	"errors"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/gp"
	"mrlegal/internal/verify"
)

// snapshotPlacement captures (X, Y, W, Placed, Orient) of every cell.
func snapshotPlacement(d *design.Design) []design.Cell {
	return append([]design.Cell(nil), d.Cells...)
}

func samePlacement(t *testing.T, want, got []design.Cell) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("cell count changed: %d vs %d", len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.X != b.X || a.Y != b.Y || a.W != b.W || a.H != b.H || a.Placed != b.Placed || a.Orient != b.Orient {
			t.Fatalf("cell %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestTxnRollbackRestoresMovesAndGrid(t *testing.T) {
	d := dtest.Flat(4, 40)
	a := dtest.Placed(d, 4, 1, 0, 0)
	b := dtest.Placed(d, 4, 2, 8, 0)
	c := dtest.Placed(d, 4, 1, 20, 2)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotPlacement(d)

	txn, err := l.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate all three cells through the legalizer's primitives.
	l.touch(a)
	l.G.Remove(a)
	l.D.Unplace(a)
	l.touch(b)
	l.G.Remove(b)
	l.D.Place(b, 30, 0)
	if err := l.G.Insert(b); err != nil {
		t.Fatal(err)
	}
	l.touch(c)
	l.G.Remove(c)
	l.D.Unplace(c)
	l.touch(c) // second touch in same span must dedup
	l.D.Place(c, 0, 3)
	if err := l.G.Insert(c); err != nil {
		t.Fatal(err)
	}
	if txn.Touched() != 3 {
		t.Fatalf("touched = %d, want 3", txn.Touched())
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	samePlacement(t, before, snapshotPlacement(d))
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	verify.MustLegal(d, verify.Options{RequirePlaced: true, PowerAlignment: true})
}

func TestTxnSavepointRollsBackOnlyTail(t *testing.T) {
	d := dtest.Flat(2, 40)
	a := dtest.Placed(d, 4, 1, 0, 0)
	b := dtest.Placed(d, 4, 1, 10, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	txn, err := l.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Span 1: move a.
	l.touch(a)
	l.G.Remove(a)
	l.D.Place(a, 20, 0)
	if err := l.G.Insert(a); err != nil {
		t.Fatal(err)
	}
	mark := txn.Mark()
	// Span 2: move b, and move a again (new record after the mark).
	l.touch(b)
	l.G.Remove(b)
	l.D.Place(b, 30, 0)
	if err := l.G.Insert(b); err != nil {
		t.Fatal(err)
	}
	l.touch(a)
	l.G.Remove(a)
	l.D.Place(a, 36, 0)
	if err := l.G.Insert(a); err != nil {
		t.Fatal(err)
	}
	if err := txn.RollbackTo(mark); err != nil {
		t.Fatal(err)
	}
	// Span 1's move survives; span 2's moves are undone.
	if got := d.Cell(a).X; got != 20 {
		t.Fatalf("a.X = %d, want 20 (span-1 state)", got)
	}
	if got := d.Cell(b).X; got != 10 {
		t.Fatalf("b.X = %d, want 10 (original)", got)
	}
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if l.txn != nil {
		t.Fatal("commit did not release the transaction slot")
	}
}

func TestTxnRollbackFromHalfCommittedState(t *testing.T) {
	// Simulate a crash between a design mutation and the matching grid
	// update: the cell is marked placed but absent from the grid.
	d := dtest.Flat(2, 40)
	a := dtest.Placed(d, 4, 1, 0, 0)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotPlacement(d)
	txn, err := l.Begin()
	if err != nil {
		t.Fatal(err)
	}
	l.touch(a)
	l.G.Remove(a)
	l.D.Place(a, 25, 1) // placed per the design, missing from the grid
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	samePlacement(t, before, snapshotPlacement(d))
	if err := l.G.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnNestedBeginFails(t *testing.T) {
	d := dtest.Flat(1, 10)
	l, err := NewLegalizer(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	txn, err := l.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Begin(); !errors.Is(err, ErrTxnActive) {
		t.Fatalf("nested Begin = %v, want ErrTxnActive", err)
	}
	txn.Commit()
	if _, err := l.Begin(); err != nil {
		t.Fatalf("Begin after Commit = %v", err)
	}
}

// undoLogProbe samples the active transaction's undo log at every grid
// insert and mid-realization hook — points inside an attempt, after its
// savepoint. It never injects a fault.
type undoLogProbe struct {
	l        *Legalizer
	samples  int
	older    int // samples holding a record from before the attempt's savepoint
	maxLen   int
	maxTotal int // the same without spanOnly, for the control run
}

func (p *undoLogProbe) sample() {
	t := p.l.txn
	if t == nil {
		return
	}
	p.samples++
	p.maxLen = max(p.maxLen, len(t.log)-t.lastMark)
	p.maxTotal = max(p.maxTotal, len(t.log))
	if t.lastMark != 0 || len(t.log) != len(t.latest) {
		p.older++
		return
	}
	for i := range t.log {
		if t.log[i].prevIdx >= 0 {
			p.older++
			return
		}
	}
}

func (p *undoLogProbe) OnGridInsert(design.CellID) error { p.sample(); return nil }
func (p *undoLogProbe) OnRealize(design.CellID)          { p.sample() }
func (p *undoLogProbe) OnAudit() bool                    { return false }

// TestRunUndoLogHoldsOneAttempt pins the bound on the run-wide batch
// log: without audits nothing rolls back past an attempt's savepoint, so
// at every mutation point of a full Table-1 run — serial, claim-board
// parallel and sharded — the log holds only the current attempt's
// records. With audits on, the batch log must still span attempts
// (audit rollbacks unwind whole batches).
func TestRunUndoLogHoldsOneAttempt(t *testing.T) {
	scale := 1500
	if testing.Short() {
		scale = 4000
	}
	drivers := []struct {
		name            string
		workers, shards int
	}{{"serial", 1, 0}, {"parallel", 2, 0}, {"shards", 1, 4}}
	for _, spec := range bengen.Table1Specs(scale) {
		b := bengen.Generate(spec)
		gp.Place(b.D, b.NL, gp.Config{Seed: spec.Seed})
		for _, drv := range drivers {
			for _, audit := range []int{0, 50} {
				cfg := DefaultConfig()
				cfg.Workers, cfg.Shards, cfg.AuditEvery = drv.workers, drv.shards, audit
				probe := &undoLogProbe{}
				cfg.Faults = probe
				l, err := NewLegalizer(b.D.Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				probe.l = l
				if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
					t.Fatalf("%s/%s audit=%d: %v", spec.Name, drv.name, audit, err)
				}
				if probe.samples == 0 {
					t.Fatalf("%s/%s: probe never fired; test is vacuous", spec.Name, drv.name)
				}
				if audit == 0 {
					if probe.older != 0 || probe.maxTotal != probe.maxLen {
						t.Errorf("%s/%s: %d of %d samples kept records from earlier attempts (log %d, attempt span %d)",
							spec.Name, drv.name, probe.older, probe.samples, probe.maxTotal, probe.maxLen)
					}
				} else if probe.maxTotal <= probe.maxLen {
					t.Errorf("%s/%s audit=%d: batch log never spanned attempts (max %d)",
						spec.Name, drv.name, audit, probe.maxTotal)
				}
			}
		}
	}
}
