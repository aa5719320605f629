// Package core implements the paper's primary contribution: the Multi-row
// Local Legalization algorithm (MLL, §4–§5) and the top-level legalization
// driver (Algorithm 1, §3).
//
// The pipeline for one MLL call is:
//
//	window → ExtractRegion (§2.1.3) → leftmost/rightmost placement and
//	insertion intervals (§5.1.1) → scanline enumeration of valid insertion
//	points (§5.1.3) → evaluation (§5.2) → realization (§5.3, Algorithm 2).
//
// All intermediate state of one pipeline instance lives in a scratch
// struct: the driver reuses one scratch per worker, so a warmed-up MLL
// call performs almost no heap allocation.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"mrlegal/internal/design"
	"mrlegal/internal/geom"
	"mrlegal/internal/segment"
)

// localCell carries the per-cell state MLL needs inside one region.
type localCell struct {
	id   design.CellID
	x, y int // current placement
	w, h int
	xL   int // x in the leftmost placement (§5.1.1)
	xR   int // x in the rightmost placement
	// cls is the cell's composite constraint class (constraint.Set);
	// always 0 when no constraints are active.
	cls uint8
}

// LocalSeg is the single local segment chosen on one window row
// (§2.1.3). Rows with no usable free run have Valid == false.
type LocalSeg struct {
	Row   int // absolute row index
	Valid bool
	Span  geom.Span // local segment extent (subset of one grid segment)
	// Cells overlapping this row inside Span, ordered by x. All entries
	// are local cells. The backing array is owned by the region's scratch
	// and is invalidated by the next extraction into the same scratch.
	Cells []design.CellID
}

// Region is an extracted local legalization problem: the window, the
// chosen local segment per row, and the local cells (cells completely
// contained in the local segments, all free to shift horizontally).
//
// A region is a pure snapshot: after extraction, enumeration and
// evaluation read only region-local state, never the grid or design —
// this is what lets the parallel driver plan regions concurrently while
// the coordinator commits elsewhere.
type Region struct {
	D   *design.Design
	G   *segment.Grid
	Win geom.Rect // clipped window

	// Segs has one entry per window row, bottom to top; Segs[i] covers
	// absolute row Win.Y+i.
	Segs []LocalSeg

	// sc owns all local-cell storage: the sorted ID list, the dense
	// localCell slice it indexes, per-row cell/index lists and the
	// position tables. Local cells are addressed by their "local index",
	// the position of their ID in sc.ids.
	sc *scratch

	// onTouch, when non-nil, is invoked with a cell ID immediately before
	// the cell's design or grid state is mutated; the legalizer wires it
	// to the active transaction's undo logging.
	onTouch func(design.CellID)
	// insertFn, when non-nil, replaces the raw grid insert for the target
	// commit (fault-injection hook).
	insertFn func(design.CellID) error
	// onRealize, when non-nil, fires mid-realization-commit (see
	// FaultInjector.OnRealize).
	onRealize func(design.CellID)
}

// touch notifies the transaction layer (when wired) that cell id is about
// to be mutated.
func (r *Region) touch(id design.CellID) {
	if r.onTouch != nil {
		r.onTouch(id)
	}
}

// insertCell inserts the target through the fault-injection hook when one
// is wired, the raw grid otherwise.
func (r *Region) insertCell(id design.CellID) error {
	if r.insertFn != nil {
		return r.insertFn(id)
	}
	return r.G.Insert(id)
}

// localIdx returns the local index of cell id, or -1 when the cell is not
// local. The sorted prefix of sc.ids is binary-searched; the (at most
// one) unsorted tail entry — the realization target — is scanned.
func (r *Region) localIdx(id design.CellID) int {
	sc := r.sc
	if i, ok := slices.BinarySearch(sc.ids[:sc.sortedIDs], id); ok {
		return i
	}
	for j := sc.sortedIDs; j < len(sc.ids); j++ {
		if sc.ids[j] == id {
			return j
		}
	}
	return -1
}

// local returns the localCell state for id, or nil when not local.
func (r *Region) local(id design.CellID) *localCell {
	if i := r.localIdx(id); i >= 0 {
		return &r.sc.cells[i]
	}
	return nil
}

// NumLocalCells returns the number of local cells |C_W|.
func (r *Region) NumLocalCells() int { return len(r.sc.ids) }

// LocalCells returns the IDs of all local cells in ascending ID order.
func (r *Region) LocalCells() []design.CellID {
	return slices.Clone(r.sc.ids)
}

// RelRow converts an absolute row index to a window-relative one.
func (r *Region) RelRow(y int) int { return y - r.Win.Y }

// AbsRow converts a window-relative row index to an absolute one.
func (r *Region) AbsRow(rel int) int { return rel + r.Win.Y }

// ExtractRegion builds the local region for the given window (§2.1.3)
// into a fresh scratch, so the returned region stays valid independently
// of later extractions. The legalizer's internal callers use
// scratch.extract directly to reuse buffers.
//
// Cells not completely inside the window are non-local. Each window row is
// divided by blockages, segment boundaries and non-local cells into free
// runs; the run closest to the window centre becomes the row's local
// segment. A cell is local only when every row it spans contains it inside
// that row's local segment; marking a cell non-local re-divides the rows,
// so the division iterates to a fixpoint (this is how cells like i and c
// in Figure 3 end up non-local despite being inside the window).
func ExtractRegion(g *segment.Grid, win geom.Rect) *Region {
	// The per-cell stamps are only needed while extracting; borrowing
	// them keeps a one-off extraction from allocating O(design) memory.
	sc := newScratch()
	st := stampPool.Get().(*cellStamps)
	sc.local = *st
	r := sc.extract(g, win)
	*st, sc.local = sc.local, cellStamps{}
	stampPool.Put(st)
	return r
}

// stampPool recycles the stamp slices of ExtractRegion's throwaway
// scratches.
var stampPool = sync.Pool{New: func() any { return new(cellStamps) }}

// cellStamps is a dense per-CellID stamp table that one extraction uses
// as its candidate set and then as its ID → local index map, reset in
// O(1). An extraction owns the stamp values base..base+locals: s[id] ==
// base marks a local candidate not (yet) demoted, and once the local
// cells are numbered s[id] == base+1+li records local index li. Every
// value an earlier extraction left behind is below base, so nothing is
// cleared between extractions. It replaces a per-extraction hash map: a
// membership test on the extraction hot path is one load.
type cellStamps struct {
	s    []uint32
	base uint32 // this extraction's candidate stamp
	next uint32 // highest stamp value handed out so far
}

// reset empties the set and sizes it for IDs below n. The slice grows
// with the design (session inserts) and is only rewritten when the
// stamp values would run out.
func (m *cellStamps) reset(n int) {
	if len(m.s) < n {
		m.s = append(m.s, make([]uint32, n-len(m.s))...)
	}
	if uint64(m.next)+uint64(n)+1 > math.MaxUint32 {
		clear(m.s)
		m.next = 0
	}
	m.base = m.next + 1 // 0 stays "never stamped"
	m.next = m.base
}

func (m *cellStamps) add(id design.CellID)      { m.s[id] = m.base }
func (m *cellStamps) remove(id design.CellID)   { m.s[id] = 0 }
func (m *cellStamps) has(id design.CellID) bool { return m.s[id] == m.base }

// number records that candidate id is local cell li.
func (m *cellStamps) number(id design.CellID, li int) {
	m.s[id] = m.base + 1 + uint32(li)
	m.next = max(m.next, m.s[id])
}

// index returns the local index number recorded for id.
func (m *cellStamps) index(id design.CellID) int32 { return int32(m.s[id] - m.base - 1) }

// winSeg is one grid segment overlapping the window on one row, with
// the index of the first cell in its list that starts at or right of the
// window's left edge.
type winSeg struct {
	s     *segment.Segment
	first int
}

// extract is ExtractRegion into this scratch's reusable storage. The
// returned region aliases the scratch; the next extract invalidates it.
//
// Its cost follows the window, not the rows it crosses: each segment
// overlapping the window is binary-searched once for its first cell at
// the window's left edge, every later walk over its x-sorted list starts
// there and stops at the window's right edge, and the fixpoint
// re-divides only the rows whose non-local set changed.
func (sc *scratch) extract(g *segment.Grid, win geom.Rect) *Region {
	d := g.Design()
	// Normalize the window to the grid: rows outside [0, NumRows) and
	// x-extent beyond the die span hold no segments, so clipping changes
	// nothing the fixpoint can see. The clipped rect doubles as the
	// extraction-cache key (clipWin), so fresh and restored regions carry
	// the same Win.
	win = clipWin(g, win)
	r := &sc.region
	*r = Region{D: d, G: g, Win: win, sc: sc}
	sc.ids = sc.ids[:0]
	sc.cells = sc.cells[:0]
	sc.multiRow = sc.multiRow[:0]
	sc.candidates = sc.candidates[:0]
	sc.sortedIDs = 0
	if win.Empty() {
		r.Segs = nil
		return r
	}
	winSpan := geom.Span{Lo: win.X, Hi: win.X2()}

	// Candidates are the movable cells completely inside the window; they
	// stay in sc.local until demoted. Every other cell is non-local. A
	// contained cell lies in the list of a segment of each row it spans,
	// at or after the segment's first cell and before the first cell
	// ending past win.X2 (lists are sorted by both edges, since cells on
	// a row never overlap).
	sc.local.reset(len(d.Cells))
	sc.winSegs = sc.winSegs[:0]
	sc.rowSegOff = grow(sc.rowSegOff, win.H+1)
	for rel := 0; rel < win.H; rel++ {
		sc.rowSegOff[rel] = int32(len(sc.winSegs))
		for _, s := range g.RowSegments(win.Y + rel) {
			if s.Span.Lo >= winSpan.Hi {
				break
			}
			if s.Span.Hi <= winSpan.Lo {
				continue
			}
			cells := s.Cells()
			i := sort.Search(len(cells), func(i int) bool { return d.Cells[cells[i]].X >= win.X })
			sc.winSegs = append(sc.winSegs, winSeg{s: s, first: i})
			for _, id := range cells[i:] {
				c := &d.Cells[id]
				if c.X+c.W > winSpan.Hi {
					break
				}
				if c.Fixed || sc.local.has(id) || c.Y < win.Y || c.Y+c.H > win.Y2() {
					continue
				}
				sc.local.add(id)
				sc.candidates = append(sc.candidates, id)
			}
		}
	}
	sc.rowSegOff[win.H] = int32(len(sc.winSegs))
	slices.Sort(sc.candidates)

	// With gap-requiring constraints active, movable non-local cells
	// within MaxGap of a row's free space still constrain local cells;
	// chooseLocalSeg subtracts their spans inflated by infl.
	infl := 0
	if sc.cons != nil {
		infl = sc.cons.MaxGap()
	}

	centerX := win.X + win.W/2
	sc.segs = grow(sc.segs, win.H)
	r.Segs = sc.segs
	dirty := grow(sc.rowDirty, win.H)
	sc.rowDirty = dirty
	for i := range dirty {
		dirty[i] = true
	}
	for {
		// Divide each window row whose non-local set changed into free
		// runs and choose the run closest to the window centre.
		for rel, ok := range dirty {
			if ok {
				r.Segs[rel] = sc.chooseLocalSeg(d, win.Y+rel, sc.rowWinSegs(rel), winSpan, centerX, infl)
				dirty[rel] = false
			}
		}
		// Demote cells that are not fully inside the chosen local
		// segments of every row they span; their rows are re-divided on
		// the next pass.
		changed := false
		for _, id := range sc.candidates {
			if !sc.local.has(id) {
				continue
			}
			c := d.Cell(id)
			sp := geom.Span{Lo: c.X, Hi: c.X + c.W}
			for h := 0; h < c.H; h++ {
				ls := &r.Segs[r.RelRow(c.Y+h)]
				if !ls.Valid || !ls.Span.Contains(sp) {
					sc.local.remove(id)
					for h := 0; h < c.H; h++ {
						dirty[r.RelRow(c.Y+h)] = true
					}
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}

	// Populate the dense local-cell table (candidates are ID-sorted, so
	// the local index order is the ID order).
	for _, id := range sc.candidates {
		if !sc.local.has(id) {
			continue
		}
		c := d.Cell(id)
		var cls uint8
		if sc.cons != nil {
			cls = sc.cons.Class(d.MasterOf(id), c.W, c.H)
		}
		sc.local.number(id, len(sc.ids))
		sc.ids = append(sc.ids, id)
		sc.cells = append(sc.cells, localCell{id: id, x: c.X, y: c.Y, w: c.W, h: c.H, cls: cls})
		if c.H > 1 {
			sc.multiRow = append(sc.multiRow, int32(len(sc.ids)-1))
		}
	}
	sc.sortedIDs = len(sc.ids)
	n := len(sc.ids)

	// Per-row cell lists (IDs and local indices, sorted by x) and the
	// inverse position table. A row's local cells are exactly the run of
	// its chosen segment's list that starts inside the local span: every
	// local cell spanning the row is contained in the span, and every
	// non-local cell — inflated or not — was subtracted from it, so none
	// starts inside. Each list keeps one slot of headroom so the
	// realization's temporary target insert never reallocates.
	sc.rowLists = growOuter(sc.rowLists, win.H)
	sc.rowIdx = growOuter(sc.rowIdx, win.H)
	sc.rowPos = growOuter(sc.rowPos, win.H)
	for rel := range r.Segs {
		ls := &r.Segs[rel]
		var run []design.CellID
		if ls.Valid {
			for _, ws := range sc.rowWinSegs(rel) {
				if !ws.s.Span.ContainsInt(ls.Span.Lo) {
					continue
				}
				cells := ws.s.Cells()
				i := ws.first
				for i < len(cells) && d.Cells[cells[i]].X < ls.Span.Lo {
					i++
				}
				j := i
				for j < len(cells) && d.Cells[cells[j]].X < ls.Span.Hi {
					j++
				}
				run = cells[i:j]
				break
			}
		}
		idxs := slices.Grow(sc.rowIdx[rel][:0], len(run)+1)
		lst := append(slices.Grow(sc.rowLists[rel][:0], len(run)+1), run...)
		for _, id := range run {
			idxs = append(idxs, sc.local.index(id))
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

// rowWinSegs returns the segments of window row rel that overlap the
// window, left to right.
func (sc *scratch) rowWinSegs(rel int) []winSeg {
	return sc.winSegs[sc.rowSegOff[rel]:sc.rowSegOff[rel+1]]
}

// growOuter resizes a slice-of-slices to length n while keeping every
// previously grown inner slice (and its capacity) reusable.
func growOuter[T any](s [][]T, n int) [][]T {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([][]T, n)
	copy(out, s[:cap(s)])
	return out
}

// chooseLocalSeg divides row y inside winSpan by blockages/segment
// boundaries and non-local cells (those not in sc.local) and returns the
// free run closest to centerX, per §2.1.3. segs are the row's segments
// that overlap winSpan (rowWinSegs).
//
// infl (the constraint set's MaxGap, 0 without constraints) inflates
// each MOVABLE non-local cell's subtracted span by infl on both sides:
// local cells then provably keep at least the largest required gap from
// every movable cell outside the local segments, which is what makes
// cross-window gap enforcement sound. Fixed cells stay un-inflated —
// they are walls, and the engine never requires gaps across walls.
func (sc *scratch) chooseLocalSeg(d *design.Design, y int, segs []winSeg, winSpan geom.Span, centerX, infl int) LocalSeg {
	ls := LocalSeg{Row: y}
	bestDist := 0
	reach := max(infl, 0)
	for _, ws := range segs {
		base := ws.s.Span.Intersect(winSpan)
		// Subtract the spans of non-local cells on this row.
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
		// Start at the first cell whose maximally inflated right edge
		// passes base.Lo: right edges are sorted like the list, and every
		// cell before it ends at or left of cur. Cells from ws.first on
		// start at or right of base.Lo, so only the few straddling the
		// window's left edge lie before it.
		cells := ws.s.Cells()
		i := ws.first
		for i > 0 {
			c := &d.Cells[cells[i-1]]
			if c.X+c.W+reach <= base.Lo {
				break
			}
			i--
		}
		for _, id := range cells[i:] {
			if sc.local.has(id) {
				continue
			}
			c := &d.Cells[id]
			// Cells are x-sorted; once even the maximal inflation cannot
			// reach base.Hi, no later cell can either. (Breaking on a
			// fixed cell's own un-inflated span would be wrong: a later
			// movable cell's inflated span could still intersect.)
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

// spanDist is the horizontal distance from x to the span (0 when inside).
func spanDist(sp geom.Span, x int) int {
	switch {
	case x < sp.Lo:
		return sp.Lo - x
	case x >= sp.Hi:
		return x - (sp.Hi - 1)
	default:
		return 0
	}
}

// computeBounds fills in the leftmost and rightmost placements xL/xR of
// every local cell (§5.1.1) with a two-pass multi-segment squeeze. Cells
// are processed in ascending current-x order, which is consistent with the
// per-segment order because the current placement is legal. The (x, id)
// order is kept in sc.xOrder for the exact evaluator to reuse.
func (r *Region) computeBounds() {
	sc := r.sc
	n := len(sc.cells)
	sc.xOrder = grow(sc.xOrder, n)
	sc.xOrderByCount(r.Win.X, r.Win.W)
	cons := sc.cons
	if cons != nil {
		// Per-row index of the most recently squeezed cell, for the
		// pairwise gap terms. Reset before each pass.
		sc.conPrev = grow(sc.conPrev, len(r.Segs))
		fill32(sc.conPrev, -1)
	}
	sc.cursor = grow(sc.cursor, len(r.Segs))
	for rel := range r.Segs {
		if r.Segs[rel].Valid {
			sc.cursor[rel] = r.Segs[rel].Span.Lo
		} else {
			sc.cursor[rel] = 0
		}
	}
	for _, li := range sc.xOrder {
		lc := &sc.cells[li]
		var xl int
		if cons == nil {
			xl = sc.cursor[r.RelRow(lc.y)]
			for h := 1; h < lc.h; h++ {
				xl = max(xl, sc.cursor[r.RelRow(lc.y+h)])
			}
		} else {
			// Gap-aware squeeze: on each spanned row the cell must clear
			// the previous cell plus the required pairwise gap, and its
			// own NarrowX clamp (fence members stay inside their region
			// even in the leftmost placement).
			xl = int(^uint(0)>>1) * -1 // MinInt+1; overwritten below
			for h := 0; h < lc.h; h++ {
				rel := r.RelRow(lc.y + h)
				c := sc.cursor[rel]
				if p := sc.conPrev[rel]; p >= 0 {
					c += cons.Gap(sc.cells[p].cls, lc.cls)
				}
				if h == 0 || c > xl {
					xl = c
				}
			}
			if lo, _ := cons.NarrowX(lc.cls, lc.w); lo > xl {
				xl = lo
			}
		}
		lc.xL = xl
		for h := 0; h < lc.h; h++ {
			rel := r.RelRow(lc.y + h)
			sc.cursor[rel] = xl + lc.w
			if cons != nil {
				sc.conPrev[rel] = li
			}
		}
	}
	if cons != nil {
		fill32(sc.conPrev, -1)
	}
	for rel := range r.Segs {
		if r.Segs[rel].Valid {
			sc.cursor[rel] = r.Segs[rel].Span.Hi
		} else {
			sc.cursor[rel] = 0
		}
	}
	for i := n - 1; i >= 0; i-- {
		li := sc.xOrder[i]
		lc := &sc.cells[li]
		xr := int(^uint(0) >> 1) // MaxInt
		if cons == nil {
			for h := 0; h < lc.h; h++ {
				rel := r.RelRow(lc.y + h)
				xr = min(xr, sc.cursor[rel]-lc.w)
			}
		} else {
			for h := 0; h < lc.h; h++ {
				rel := r.RelRow(lc.y + h)
				c := sc.cursor[rel]
				if p := sc.conPrev[rel]; p >= 0 {
					c -= cons.Gap(lc.cls, sc.cells[p].cls)
				}
				xr = min(xr, c-lc.w)
			}
			if _, hi := cons.NarrowX(lc.cls, lc.w); hi < xr {
				xr = hi
			}
		}
		lc.xR = xr
		for h := 0; h < lc.h; h++ {
			rel := r.RelRow(lc.y + h)
			sc.cursor[rel] = xr
			if cons != nil {
				sc.conPrev[rel] = li
			}
		}
	}
}

// xOrderByCount fills sc.xOrder with the local indices in (x, index)
// order — which is (x, id) order, as local indices follow ID order — by
// a stable counting sort on x - winX. Every local cell lies inside the
// window, so the offsets fall in [0, winW).
func (sc *scratch) xOrderByCount(winX, winW int) {
	cnt := grow(sc.xCount, winW)
	clear(cnt)
	for i := range sc.cells {
		cnt[sc.cells[i].x-winX]++
	}
	start := int32(0)
	for off, c := range cnt {
		cnt[off] = start
		start += c
	}
	for i := range sc.cells {
		off := sc.cells[i].x - winX
		sc.xOrder[cnt[off]] = int32(i)
		cnt[off]++
	}
	sc.xCount = cnt
}

// checkBounds validates xL ≤ x ≤ xR for every local cell; the input
// placement being legal guarantees it. Used by tests and debug mode.
func (r *Region) checkBounds() error {
	for i := range r.sc.cells {
		lc := &r.sc.cells[i]
		if lc.xL > lc.x || lc.x > lc.xR {
			return fmt.Errorf("core: cell %d bounds xL=%d x=%d xR=%d inconsistent", lc.id, lc.xL, lc.x, lc.xR)
		}
	}
	return nil
}
