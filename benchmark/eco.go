package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"mrlegal/internal/design"
	"mrlegal/internal/service"
)

// ecoGen generates serve-mixed's delta frames from a seed. It mirrors
// the session's placement from the response frames, so each delta aims
// near a cell's current position; the frame sequence is a function of
// the seed and the (deterministic) responses alone.
type ecoGen struct {
	rng     *rand.Rand
	cells   []ecoCell
	live    []int // live movable cell ids
	livePos []int // index of each cell in live, -1 when not there
	masterW []int // width of each master
	singles []int // single-row masters, the ones inserts use
	used    []int // cells already touched by the frame being built
}

type ecoCell struct {
	x, y, w, master int
}

func newEcoGen(d *design.Design, seed int64) *ecoGen {
	g := &ecoGen{rng: rand.New(rand.NewSource(seed))}
	for i := range d.Lib {
		g.masterW = append(g.masterW, d.Lib[i].Width)
		if d.Lib[i].Height == 1 {
			g.singles = append(g.singles, i)
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		g.cells = append(g.cells, ecoCell{x: c.X, y: c.Y, w: c.W, master: c.Master})
		g.livePos = append(g.livePos, -1)
		if !c.Fixed && !c.Dead && c.Placed {
			g.addLive(i)
		}
	}
	return g
}

func (g *ecoGen) addLive(id int) {
	g.livePos[id] = len(g.live)
	g.live = append(g.live, id)
}

func (g *ecoGen) removeLive(id int) {
	i := g.livePos[id]
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.livePos[last] = i
	g.live = g.live[:len(g.live)-1]
	g.livePos[id] = -1
}

// pick returns a live cell the current frame has not touched yet.
func (g *ecoGen) pick() int {
	for {
		id := g.live[g.rng.Intn(len(g.live))]
		fresh := true
		for _, u := range g.used {
			fresh = fresh && u != id
		}
		if fresh {
			g.used = append(g.used, id)
			return id
		}
	}
}

func intp(v int) *int           { return &v }
func floatp(v float64) *float64 { return &v }

// next builds one frame of frameDeltas deltas: 80% moves by up to 20
// sites and 4 rows, 10% resizes by one site, 5% inserts of a single-row
// cell next to a live one, 5% deletes. It returns the frame payload and
// the deltas, which apply needs with the response.
func (g *ecoGen) next() ([]byte, []service.DeltaJSON, error) {
	g.used = g.used[:0]
	ds := make([]service.DeltaJSON, 0, frameDeltas)
	for i := 0; i < frameDeltas; i++ {
		r := g.rng.Intn(100)
		switch {
		case r < 80:
			id := g.pick()
			c := &g.cells[id]
			ds = append(ds, service.DeltaJSON{Op: "move", Cell: intp(id),
				X: floatp(float64(c.x + g.rng.Intn(41) - 20)), Y: floatp(float64(c.y + g.rng.Intn(9) - 4))})
		case r < 90:
			id := g.pick()
			c := &g.cells[id]
			w := g.masterW[c.master]
			if c.w == w {
				w++
			}
			c.w = w
			ds = append(ds, service.DeltaJSON{Op: "resize", Cell: intp(id), W: intp(w)})
		case r < 95:
			near := &g.cells[g.live[g.rng.Intn(len(g.live))]]
			m := g.singles[g.rng.Intn(len(g.singles))]
			ds = append(ds, service.DeltaJSON{Op: "insert", Master: intp(m),
				X: floatp(float64(near.x + g.rng.Intn(21) - 10)), Y: floatp(float64(near.y))})
		default:
			id := g.pick()
			g.removeLive(id)
			ds = append(ds, service.DeltaJSON{Op: "delete", Cell: intp(id)})
		}
	}
	payload, err := json.Marshal(service.DeltaBatchJSON{Deltas: ds})
	return payload, ds, err
}

// apply updates the mirror from a committed frame's results.
func (g *ecoGen) apply(ds []service.DeltaJSON, rs []service.DeltaResultJSON) error {
	if len(rs) != len(ds) {
		return fmt.Errorf("%d results for %d deltas", len(rs), len(ds))
	}
	for i, r := range rs {
		switch ds[i].Op {
		case "move", "resize":
			g.cells[r.Cell].x, g.cells[r.Cell].y = r.X, r.Y
		case "insert":
			if r.Cell != len(g.cells) {
				return fmt.Errorf("inserted cell got id %d, want %d", r.Cell, len(g.cells))
			}
			m := *ds[i].Master
			g.cells = append(g.cells, ecoCell{x: r.X, y: r.Y, w: g.masterW[m], master: m})
			g.livePos = append(g.livePos, -1)
			g.addLive(r.Cell)
		}
	}
	return nil
}
