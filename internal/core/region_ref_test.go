package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/segment"
)

// refExtract is the original map-based extraction, kept as the reference
// that the window-proportional scratch.extract must reproduce exactly
// (FuzzExtractMatchesReference). It collects the window's cells through
// Grid.CellsIn, tracks demoted cells in a map, re-divides every window
// row on every fixpoint pass by walking each segment from its left end,
// and builds the per-row lists by scanning all local cells per row.
// Only the scratch fields it used to own (the collection buffer and the
// non-local map) are local variables here.
func refExtract(sc *scratch, g *segment.Grid, win geom.Rect) *Region {
	d := g.Design()
	win = clipWin(g, win)
	r := &sc.region
	*r = Region{D: d, G: g, Win: win, sc: sc}
	sc.ids = sc.ids[:0]
	sc.cells = sc.cells[:0]
	sc.multiRow = sc.multiRow[:0]
	sc.candidates = sc.candidates[:0]
	sc.sortedIDs = 0
	nonLocal := make(map[design.CellID]bool)
	if win.Empty() {
		r.Segs = nil
		return r
	}
	winSpan := geom.Span{Lo: win.X, Hi: win.X2()}

	infl := 0
	colWin := win
	if sc.cons != nil {
		if infl = sc.cons.MaxGap(); infl > 0 {
			colWin.X -= infl
			colWin.W += 2 * infl
		}
	}
	all := g.CellsIn(colWin, nil)
	for _, id := range all {
		c := d.Cell(id)
		if c.Fixed || !win.Contains(c.Rect()) {
			nonLocal[id] = true
		} else {
			sc.candidates = append(sc.candidates, id)
		}
	}
	slices.Sort(sc.candidates)

	centerX := win.X + win.W/2
	sc.segs = grow(sc.segs, win.H)
	r.Segs = sc.segs
	for {
		for rel := 0; rel < win.H; rel++ {
			y := win.Y + rel
			r.Segs[rel] = refChooseLocalSeg(g, d, y, winSpan, nonLocal, centerX, infl)
		}
		changed := false
		for _, id := range sc.candidates {
			if nonLocal[id] {
				continue
			}
			c := d.Cell(id)
			for h := 0; h < c.H; h++ {
				ls := &r.Segs[r.RelRow(c.Y+h)]
				if !ls.Valid || !ls.Span.Contains(geom.Span{Lo: c.X, Hi: c.X + c.W}) {
					nonLocal[id] = true
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}

	for _, id := range sc.candidates {
		if nonLocal[id] {
			continue
		}
		c := d.Cell(id)
		var cls uint8
		if sc.cons != nil {
			cls = sc.cons.Class(d.MasterOf(id), c.W, c.H)
		}
		sc.ids = append(sc.ids, id)
		sc.cells = append(sc.cells, localCell{id: id, x: c.X, y: c.Y, w: c.W, h: c.H, cls: cls})
		if c.H > 1 {
			sc.multiRow = append(sc.multiRow, int32(len(sc.ids)-1))
		}
	}
	sc.sortedIDs = len(sc.ids)
	n := len(sc.ids)

	sc.rowLists = growOuter(sc.rowLists, win.H)
	sc.rowIdx = growOuter(sc.rowIdx, win.H)
	sc.rowPos = growOuter(sc.rowPos, win.H)
	for rel := range r.Segs {
		ls := &r.Segs[rel]
		idxs := sc.rowIdx[rel][:0]
		if ls.Valid {
			for li := range sc.cells {
				lc := &sc.cells[li]
				if lc.y <= ls.Row && ls.Row < lc.y+lc.h {
					idxs = append(idxs, int32(li))
				}
			}
			slices.SortFunc(idxs, func(a, b int32) int {
				return cmp.Compare(sc.cells[a].x, sc.cells[b].x)
			})
		}
		idxs = slices.Grow(idxs, 1)
		lst := slices.Grow(sc.rowLists[rel][:0], len(idxs)+1)
		for _, li := range idxs {
			lst = append(lst, sc.ids[li])
		}
		sc.rowIdx[rel], sc.rowLists[rel] = idxs, lst
		ls.Cells = lst

		pos := grow(sc.rowPos[rel], n)
		fill32(pos, -1)
		for p, li := range idxs {
			pos[li] = int32(p)
		}
		sc.rowPos[rel] = pos
	}
	r.computeBounds()
	return r
}

// refChooseLocalSeg is the original row division: it walks every cell of
// each overlapping segment from the segment's left end and looks each one
// up in the non-local map.
func refChooseLocalSeg(g *segment.Grid, d *design.Design, y int, winSpan geom.Span, nonLocal map[design.CellID]bool, centerX, infl int) LocalSeg {
	ls := LocalSeg{Row: y}
	bestDist := 0
	for _, s := range g.RowSegments(y) {
		base := s.Span.Intersect(winSpan)
		if base.Empty() {
			continue
		}
		cur := base.Lo
		emit := func(lo, hi int) {
			if hi <= lo {
				return
			}
			sp := geom.Span{Lo: lo, Hi: hi}
			dist := spanDist(sp, centerX)
			if !ls.Valid || dist < bestDist ||
				(dist == bestDist && sp.Len() > ls.Span.Len()) ||
				(dist == bestDist && sp.Len() == ls.Span.Len() && sp.Lo < ls.Span.Lo) {
				ls.Valid = true
				ls.Span = sp
				bestDist = dist
			}
		}
		for _, id := range s.Cells() {
			if !nonLocal[id] {
				continue
			}
			c := d.Cell(id)
			if c.X-infl >= base.Hi {
				break
			}
			cInf := 0
			if infl > 0 && !c.Fixed {
				cInf = infl
			}
			lo, hi := c.X-cInf, c.X+c.W+cInf
			if hi <= cur {
				continue
			}
			if lo >= base.Hi {
				continue
			}
			emit(cur, min(lo, base.Hi))
			cur = max(cur, hi)
			if cur >= base.Hi {
				break
			}
		}
		emit(cur, base.Hi)
	}
	return ls
}

// diffExtraction reports the first difference between two extractions of
// the same window: the window, every row's local segment and cell list,
// the local-cell table with its xL/xR bounds, and the index and position
// tables the later pipeline phases read.
func diffExtraction(got, want *scratch) error {
	rg, rw := &got.region, &want.region
	if rg.Win != rw.Win {
		return fmt.Errorf("windows differ: got %v want %v", rg.Win, rw.Win)
	}
	if len(rg.Segs) != len(rw.Segs) {
		return fmt.Errorf("row counts differ: got %d want %d", len(rg.Segs), len(rw.Segs))
	}
	if !slices.Equal(got.ids, want.ids) || got.sortedIDs != want.sortedIDs {
		return fmt.Errorf("local IDs differ: got %v want %v", got.ids, want.ids)
	}
	if !slices.Equal(got.cells, want.cells) {
		return fmt.Errorf("local cells (incl. xL/xR) differ:\ngot  %+v\nwant %+v", got.cells, want.cells)
	}
	if rg.Win.Empty() {
		// Both return before any table is built; the rest is stale.
		return nil
	}
	// Both sides share computeBounds, so check its x order directly too.
	for i := 1; i < len(got.xOrder); i++ {
		a, b := &got.cells[got.xOrder[i-1]], &got.cells[got.xOrder[i]]
		if a.x > b.x || a.x == b.x && a.id >= b.id {
			return fmt.Errorf("xOrder not sorted by (x, id) at %d: %v", i, got.xOrder)
		}
	}
	if !slices.Equal(got.multiRow, want.multiRow) || !slices.Equal(got.xOrder, want.xOrder) {
		return fmt.Errorf("multiRow/xOrder differ: %v %v / %v %v", got.multiRow, want.multiRow, got.xOrder, want.xOrder)
	}
	for rel := range rg.Segs {
		a, b := &rg.Segs[rel], &rw.Segs[rel]
		if a.Row != b.Row || a.Valid != b.Valid || a.Span != b.Span || !slices.Equal(a.Cells, b.Cells) {
			return fmt.Errorf("row %d segs differ:\ngot  %+v\nwant %+v", rel, *a, *b)
		}
		if !slices.Equal(got.rowIdx[rel], want.rowIdx[rel]) {
			return fmt.Errorf("row %d index lists differ: got %v want %v", rel, got.rowIdx[rel], want.rowIdx[rel])
		}
		if !slices.Equal(got.rowPos[rel], want.rowPos[rel]) {
			return fmt.Errorf("row %d position tables differ: got %v want %v", rel, got.rowPos[rel], want.rowPos[rel])
		}
	}
	return nil
}

// MatchesReferenceExtraction extracts win with the legalizer's own serial
// scratch — whose stamps have lived through every earlier MLL call and
// design growth — and with the reference implementation, and reports
// the first difference. Exported for the external session tests.
func MatchesReferenceExtraction(l *Legalizer, win geom.Rect) error {
	sc := l.scratchFor()
	sc.extract(l.G, win)
	ref := newScratch()
	ref.cons = sc.cons
	refExtract(ref, l.G, win)
	return diffExtraction(sc, ref)
}

// ExtractStampLen is the length of the legalizer's serial-scratch stamp
// slice: the number of cell IDs it can index without growing.
func ExtractStampLen(l *Legalizer) int { return len(l.scratchFor().local.s) }

// FuzzExtractMatchesReference pins the window-proportional extraction to
// the original map-based one (refExtract) on random grids: blockages and
// fixed cells carving the rows, 1–4-row cells, windows hanging off every
// die edge, constraint sets with MaxGap() > 0 (inflated subtraction), a
// stamp table about to run out of values, and a design grown by session
// inserts after the scratch was first used.
func FuzzExtractMatchesReference(f *testing.F) {
	// Header: rows, width, flags (bit 0: stamp values run out; bits 1–2:
	// constraint set; bits 3–6: session inserts), window x/y/w/h. The rest
	// places blockages, fixed cells, movable cells and the inserts.
	f.Add([]byte{3, 20, 0b0011_011, 12, 0, 20, 7, 1, 4, 1, 3, 1, 1, 2, 9, 1, 1, 0, 30,
		2, 1, 3, 1, 0, 2, 2, 5, 0, 3, 2, 12, 1, 1, 1, 20, 2, 4, 1, 30, 0, 2, 2, 40, 1})
	f.Add([]byte{5, 36, 0b0101_100, 0, 1, 26, 6, 0, 2, 2, 2, 10, 2, 1, 1, 40, 3,
		3, 1, 0, 0, 2, 3, 8, 1, 1, 2, 15, 0, 4, 3, 20, 3, 1, 1, 26, 2, 1, 1, 33, 5, 6, 2, 22, 3})
	f.Add([]byte{2, 4, 0b1000_111, 200, 250, 30, 8, 2, 10, 0, 3, 1, 2, 0, 5, 1, 0, 12,
		1, 2, 0, 0, 3, 1, 5, 0, 4, 4, 9, 0, 2, 1, 20, 2, 3, 2, 1, 1, 1, 22, 1, 4, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			v := data[pos]
			pos++
			return int(v)
		}
		rows := 3 + next()%6
		width := 24 + next()%40
		flags := next()
		win := geom.Rect{X: next()%(width+16) - 8, Y: next()%(rows+4) - 2, W: 1 + next()%32, H: 1 + next()%9}
		d := dtest.Flat(rows, width)
		for n := next() % 3; n > 0; n-- {
			d.Blockages = append(d.Blockages, geom.Rect{
				X: next() % width, Y: next() % rows, W: 1 + next()%6, H: 1 + next()%2})
		}
		for n := next() % 3; n > 0; n-- {
			fx := dtest.Placed(d, 1+next()%4, 1+next()%2, next()%(width-4), next()%(rows-1))
			d.Cell(fx).Fixed = true
		}
		// Movable cells of 1–4 rows at fuzz-chosen free slots.
		g0 := segment.Build(d)
		for n := 4 + next()%40; n > 0; n-- {
			w, h := 1+next()%7, 1+next()%4
			if h > rows {
				continue
			}
			x, y := next()%(width-w+1), next()%(rows-h+1)
			if !g0.FreeAt(x, y, w, h) {
				continue
			}
			if err := g0.Insert(dtest.Placed(d, w, h, x, y)); err != nil {
				t.Fatalf("insert after FreeAt: %v", err)
			}
		}
		cfg := DefaultConfig()
		cfg.ExtractCache = false
		l, err := NewLegalizer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}

		sets := fuzzConstraintConfigs(t)
		cons := sets[(flags>>1)%len(sets)]
		arm := func(sc *scratch) *scratch {
			sc.cons = cons
			sc.conTCls = 0
			sc.conTLo, sc.conTHi = math.MinInt, math.MaxInt
			return sc
		}
		sc := arm(newScratch())
		if flags&1 == 1 {
			// The first extraction takes the last stamp values; the next
			// one must clear the slice and start over.
			sc.local.next = math.MaxUint32 - uint32(len(d.Cells)) - 1
		}
		check := func(what string, win geom.Rect) {
			t.Helper()
			sc.extract(l.G, win)
			ref := arm(newScratch())
			refExtract(ref, l.G, win)
			if err := diffExtraction(sc, ref); err != nil {
				t.Fatalf("%s, window %v: %v", what, win, err)
			}
		}
		check("initial design", win)

		// Grow the design through session inserts, then re-extract with
		// the scratch whose stamps were sized for the smaller design.
		s, err := NewSession(l)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		for n := (flags >> 3) % 9; n > 0; n-- {
			w, h := 1+next()%5, 1+next()%min(rows, 3)
			tx, ty := next()%width, next()%(rows-h+1)
			m := dtest.Master(d, w, h, d.RowBottomRail(ty))
			_, _ = s.ApplyDelta(context.Background(), []Delta{{Op: DeltaInsert, Master: m, TX: float64(tx), TY: float64(ty)}})
		}
		check("grown design", win)
		for i := len(d.Cells) - 1; i >= 0; i-- {
			if c := &d.Cells[i]; c.Placed && !c.Fixed {
				check("around the newest cell", geom.Rect{X: c.X - 6, Y: c.Y - 2, W: c.W + 12, H: c.H + 4})
				break
			}
		}
	})
}

// TestExtractMatchesReferenceOnBenchmark runs the same differential check
// on a legalized generated design — blockages, 1–4-row cells, rows much
// longer than any window — over windows of every shape, including ones
// hanging off the die, under each fuzz constraint set.
func TestExtractMatchesReferenceOnBenchmark(t *testing.T) {
	b := bengen.Generate(bengen.Spec{Name: "ref", NumCells: 3000, Density: 0.75,
		BlockageFrac: 0.08, TripleFrac: 0.04, QuadFrac: 0.03, Seed: 5})
	l, err := NewLegalizer(b.D, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Legalize(); err != nil {
		t.Fatal(err)
	}
	bb := b.D.Bounds()
	rng := rand.New(rand.NewPCG(5, 13))
	for ci, cons := range fuzzConstraintConfigs(t) {
		sc := newScratch()
		sc.cons = cons
		for i := 0; i < 400; i++ {
			win := geom.Rect{
				X: bb.X - 40 + rng.IntN(bb.W+80),
				Y: bb.Y - 6 + rng.IntN(bb.H+12),
				W: 1 + rng.IntN(120),
				H: 1 + rng.IntN(16),
			}
			sc.extract(l.G, win)
			ref := newScratch()
			ref.cons = cons
			refExtract(ref, l.G, win)
			if err := diffExtraction(sc, ref); err != nil {
				t.Fatalf("constraint set %d, window %v: %v", ci, win, err)
			}
		}
	}
}
