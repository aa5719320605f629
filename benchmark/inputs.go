package main

import (
	"bytes"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/gp"
	"mrlegal/internal/iodesign"
)

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median, and every repeat must produce byte-identical inputs.
const setupRepeats = 3

// subSeed derives the seed of one generated input from the run's seed,
// so the inputs of a workload are distinct but all follow --seed.
func subSeed(seed int64, salt int) int64 { return seed*7919 + int64(salt) }

// designText generates a synthetic design with a clustered netlist,
// places it with the quadratic global placer and returns it in the
// mrlegal text format — what `mrgen -gp` writes.
func designText(name string, cells int, density float64, seed int64) ([]byte, error) {
	b := bengen.Generate(bengen.Spec{Name: name, NumCells: cells, Density: density, Seed: seed})
	gp.Place(b.D, b.NL, gp.Config{Seed: seed})
	var buf bytes.Buffer
	if err := iodesign.Write(&buf, b.D, b.NL); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// dispSites returns the displacement of every placed movable live cell
// in site widths, appended to xs.
func dispSites(d *design.Design, xs []float64) []float64 {
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed || c.Dead || !c.Placed {
			continue
		}
		xs = append(xs, c.DispSites(d.SiteW, d.SiteH))
	}
	return xs
}

// quality stores the paper's Table-1 metrics over the given per-cell
// displacements and HPWL totals.
func quality(disp []float64, hpwlBefore, hpwlAfter float64, values map[string]float64) {
	sum := 0.0
	for _, x := range disp {
		sum += x
	}
	values["avg_disp_sites"] = ratio(sum, float64(len(disp)))
	values["disp_p999_sites"] = percentile(disp, 99.9)
	values["dhpwl_pct"] = ratio(hpwlAfter-hpwlBefore, hpwlBefore) * 100
}
