package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/netlist"
	"mrlegal/internal/verify"
)

// flowSpec is a flow workload: cmd/mrlegal's pipeline, parse through
// write, on one generated design.
type flowSpec struct {
	name    string
	cells   int
	density float64
}

var (
	// flow100k is the reference size: one round, mostly direct
	// placements, extraction the largest engine phase.
	flow100k = flowSpec{"flow-100k", 100_000, 0.6}
	// dense50k is the robustness edge: many retry rounds and failing MLL
	// calls, escalated windows and a long displacement tail.
	dense50k = flowSpec{"dense-50k", 50_000, 0.97}
)

// minFlows is the fewest flows a run times, however long they take.
const minFlows = 3

// flowRun is one timed flow and what the checks after it need.
type flowRun struct {
	wall, cpu     time.Duration
	d             *design.Design
	l             *core.Legalizer
	rep           *core.Report
	violations    int
	before, after float64
	legalizeS     float64
}

// runFlow measures flows of one design for the timed window. In a traced
// run odd flows record spans and phase timing and even flows do not, so
// their medians give the tracing overhead.
func runFlow(opt options, fs flowSpec) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	v := out.values

	var text []byte
	var setup setupTimes
	for i := 0; i < setupRepeats; i++ {
		setup.start()
		b, err := designText(fs.name, fs.cells, fs.density, opt.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup.stop()
		out.check(text == nil || bytes.Equal(b, text), "set-up %d generated different inputs from the same seed", i)
		text = b
	}
	setup.values(v)

	var tr *tracer
	minUnits := minFlows
	if opt.trace {
		tr = newTracer()
		minUnits = 4
	}
	var (
		plain, traced []float64 // flow wall times in seconds
		cpus          []float64
		checksum      uint64
		eng           engineTotals
		wbuf          bytes.Buffer
	)
	startTimedPhase()
	g0, steal0 := readGoCounters(), stealSeconds()
	begin := time.Now()
	units := 0
	for ; units < minUnits || time.Since(begin) < opt.seconds; units++ {
		var t *tracer
		if opt.trace && units%2 == 1 {
			t = tr
		}
		// Each flow starts from a collected heap, as a fresh mrlegal
		// process would, so no flow pays for another's garbage.
		runtime.GC()
		r, err := runOneFlow(text, t, units, &wbuf)
		if err != nil {
			return nil, fmt.Errorf("flow %d: %w", units, err)
		}

		// Checks and counters, outside the flow's stopwatch.
		if t != nil {
			traced = append(traced, r.wall.Seconds())
			eng.add(r.l, r.legalizeS, runtime.GOMAXPROCS(0))
		} else {
			plain = append(plain, r.wall.Seconds())
			cpus = append(cpus, r.cpu.Seconds())
		}
		out.attempted += int64(r.rep.Placed + len(r.rep.Failed))
		out.failed += int64(len(r.rep.Failed))
		out.check(r.violations == 0, "flow %d: %d verify violations", units, r.violations)
		sum := r.d.PlacementChecksum()
		if units == 0 {
			checksum = sum
			quality(dispSites(r.d, nil), r.before, r.after, v)
		}
		out.check(sum == checksum, "flow %d: placement checksum %016x, flow 0 had %016x", units, sum, checksum)
	}
	v["peak_rss_mb"] = peakRSSMB()
	v["steal_s"] = stealSeconds() - steal0
	g0.perUnit(readGoCounters(), units, v)

	v["flow_s"] = median(plain)
	v["cpu_s"] = median(cpus)
	v["fail_frac"] = ratio(float64(out.failed), float64(out.attempted))

	if opt.trace {
		n := float64(len(traced))
		perUnit := func(name string) float64 {
			total := 0.0
			for _, s := range tr.selfSeconds(name) {
				total += s
			}
			return total / n
		}
		v["iodesign.parse_s"] = perUnit("iodesign.Read")
		v["iodesign.write_s"] = perUnit("iodesign.Write")
		v["iodesign.input_mb"] = float64(len(text)) / (1 << 20)
		v["segment.grid_build_s"] = perUnit("core.NewLegalizer")
		v["verify.check_s"] = perUnit("verify.Check")
		v["netlist.hpwl_s"] = perUnit("netlist.HPWL")
		out.check(eng.values(v), "core phase busy time exceeds the planners' busy budget")
		v["trace.overhead_pct"] = (median(traced)/median(plain) - 1) * 100
		zero(v, "service.eco_rtt_p50_ms", "service.eco_rtt_p99_ms", "service.job_p50_ms", "service.job_p90_ms",
			"session.apply_p50_ms", "session.apply_p99_ms", "session.dirty_cells_per_batch",
			"session.retries_per_batch", "session.rollbacks", "design.checksum_ms",
			"service.submit_p50_ms", "service.eco_overhead_p50_ms", "service.non2xx",
			"jobq.wait_p50_ms", "jobq.wait_p90_ms", "jobq.run_p50_ms", "jobq.rejected")
		if err := tr.write(fs.name, opt.seed); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return out, nil
}

// runOneFlow is cmd/mrlegal's pipeline on an in-memory input: parse,
// HPWL, grid build, best-effort legalization, verification, HPWL and
// write. Only this is timed.
func runOneFlow(text []byte, tr *tracer, k int, w *bytes.Buffer) (*flowRun, error) {
	unit := fmt.Sprintf("flow/%d", k)
	r := &flowRun{}
	var (
		d   *design.Design
		nl  *netlist.Netlist
		err error
	)
	start, cpu0 := time.Now(), processCPU()
	root := tr.begin("flow", unit, -1)
	tr.do("iodesign.Read", unit, root, func() { d, nl, err = iodesign.Read(bytes.NewReader(text)) })
	if err != nil {
		return nil, err
	}
	tr.do("netlist.HPWL", unit, root, func() { r.before = nl.HPWL(d) })
	cfg := core.DefaultConfig()
	cfg.PhaseTiming = tr != nil
	tr.do("core.NewLegalizer", unit, root, func() { r.l, err = core.NewLegalizer(d, cfg) })
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tr.do("core.LegalizeBestEffort", unit, root, func() { r.rep, err = r.l.LegalizeBestEffort(context.Background()) })
	r.legalizeS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	opt := verify.Options{RequirePlaced: len(r.rep.Failed) == 0, PowerAlignment: cfg.PowerAlign}
	tr.do("verify.Check", unit, root, func() { r.violations = len(verify.Check(d, opt, 5)) })
	tr.do("netlist.HPWL", unit, root, func() { r.after = nl.HPWL(d) })
	w.Reset()
	tr.do("iodesign.Write", unit, root, func() { err = iodesign.Write(w, d, nl) })
	tr.end(root)
	r.wall, r.cpu = time.Since(start), processCPU()-cpu0
	r.d = d
	return r, err
}
