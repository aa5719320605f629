package iodesign

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
	"mrlegal/internal/geom"
	"mrlegal/internal/gp"
	"mrlegal/internal/netlist"
)

// writeFmt is the original one-fmt-call-per-field writer, kept as the
// byte-for-byte reference for Write.
func writeFmt(w io.Writer, d *design.Design, nl *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# mrlegal design format v1\n")
	fmt.Fprintf(bw, "design %s %d %d\n", escape(d.Name), d.SiteW, d.SiteH)
	for i := range d.Rows {
		r := &d.Rows[i]
		fmt.Fprintf(bw, "row %d %d %d\n", r.Y, r.Span.Lo, r.Span.Hi)
	}
	for _, b := range d.Blockages {
		fmt.Fprintf(bw, "blockage %d %d %d %d\n", b.X, b.Y, b.W, b.H)
	}
	for i := range d.Lib {
		m := &d.Lib[i]
		fmt.Fprintf(bw, "master %s %d %d %v\n", escape(m.Name), m.Width, m.Height, m.BottomRail)
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		fmt.Fprintf(bw, "cell %s %d %g %g", escape(c.Name), c.Master, c.GX, c.GY)
		if c.Placed {
			fmt.Fprintf(bw, " @ %d %d", c.X, c.Y)
		}
		if c.Fixed {
			fmt.Fprintf(bw, " fixed")
		}
		fmt.Fprintln(bw)
	}
	if nl != nil {
		for i := range nl.Nets {
			n := &nl.Nets[i]
			fmt.Fprintf(bw, "net %s", escape(n.Name))
			for _, p := range n.Pins {
				if p.Cell == design.NoCell {
					fmt.Fprintf(bw, " - %g %g", p.DX, p.DY)
				} else {
					fmt.Fprintf(bw, " %d %g %g", p.Cell, p.DX, p.DY)
				}
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// TestWriteMatchesFmtReference pins Write to the fmt-based reference
// writer byte for byte: fixed and unplaced cells, names with spaces and
// the empty name, pad pins, negative and non-integral coordinates, and a
// generated, globally placed design with its netlist.
func TestWriteMatchesFmtReference(t *testing.T) {
	d := dtest.Flat(4, 50)
	d.Name = "my design"
	d.Blockages = append(d.Blockages, geom.Rect{X: 5, Y: 1, W: 3, H: 2})
	a := dtest.Placed(d, 4, 1, 10, 0)
	b := dtest.Unplaced(d, 4, 2, -20.5, 1.25)
	fx := dtest.Placed(d, 6, 1, 30, 3)
	d.Cell(fx).Fixed = true
	d.Cell(a).Name = "a cell with spaces"
	d.Cell(b).Name = ""
	odd := dtest.Unplaced(d, 2, 1, 1e21, -1e-7)
	d.Cell(odd).GX, d.Cell(odd).GY = 123456789.125, math.Copysign(0, -1)
	unfixed := dtest.Unplaced(d, 3, 1, 0.1, 3)
	d.Cell(unfixed).Fixed = true // fixed but unplaced
	nl := netlist.New()
	nl.AddNet("n 0",
		netlist.Pin{Cell: a, DX: 2, DY: 0.5},
		netlist.Pin{Cell: b, DX: -1, DY: -0.25},
		netlist.Pin{Cell: design.NoCell, DX: 44, DY: 3},
		netlist.Pin{Cell: design.NoCell, DX: -7.75, DY: 1e-3},
	)
	nl.AddNet("", netlist.Pin{Cell: odd, DX: 0.3333333333333333, DY: 5e-324})

	bm := bengen.Generate(bengen.Spec{Name: "wr", NumCells: 500, Density: 0.6, Seed: 3})
	gp.Place(bm.D, bm.NL, gp.Config{})

	for _, tc := range []struct {
		name string
		d    *design.Design
		nl   *netlist.Netlist
	}{
		{"hand-built", d, nl},
		{"no netlist", d, nil},
		{"generated", bm.D, bm.NL},
	} {
		var got, want bytes.Buffer
		if err := Write(&got, tc.d, tc.nl); err != nil {
			t.Fatal(err)
		}
		if err := writeFmt(&want, tc.d, tc.nl); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write differs from the fmt reference:\ngot\n%s\nwant\n%s", tc.name, got.String(), want.String())
		}
	}
}
