package main

import (
	"bytes"
	"testing"
	"time"
)

// shapeSeed is a seed other than the one the README's examples use: each
// workload must keep the property it was chosen for on it, so a seed
// change cannot quietly turn one workload into another.
const shapeSeed = 2

func TestFlowWorkloadShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and legalizes 150k cells")
	}
	for _, tc := range []struct {
		fs    flowSpec
		shape func(t *testing.T, r *flowRun)
	}{
		{flow100k, func(t *testing.T, r *flowRun) {
			// One round and no failing MLL call: the engine's common path.
			if st := r.l.Stats(); r.rep.Rounds != 1 || st.MLLFailures != 0 {
				t.Errorf("%d rounds, %d failed MLL calls; want 1 round and none", r.rep.Rounds, st.MLLFailures)
			}
		}},
		{dense50k, func(t *testing.T, r *flowRun) {
			// Several retry rounds and over 10% failing MLL calls: the
			// retry driver and escalated windows at work.
			st := r.l.Stats()
			if frac := ratio(float64(st.MLLFailures), float64(st.MLLCalls)); r.rep.Rounds < 3 || frac <= 0.10 {
				t.Errorf("%d rounds, %.3f of MLL calls failed; want >= 3 rounds and > 0.10", r.rep.Rounds, frac)
			}
		}},
	} {
		t.Run(tc.fs.name, func(t *testing.T) {
			text, err := designText(tc.fs.name, tc.fs.cells, tc.fs.density, shapeSeed)
			if err != nil {
				t.Fatal(err)
			}
			var w bytes.Buffer
			r, err := runOneFlow(text, nil, 0, &w)
			if err != nil {
				t.Fatal(err)
			}
			if r.violations != 0 || len(r.rep.Failed) != 0 {
				t.Fatalf("%d violations, %d unplaced cells", r.violations, len(r.rep.Failed))
			}
			tc.shape(t, r)
		})
	}
}

func TestServeWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service workload")
	}
	out, err := runServe(options{seed: shapeSeed, seconds: 3 * time.Second, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.failures) > 0 || out.failed > 0 {
		t.Fatalf("checks failed: %v; %d failed operations", out.failures, out.failed)
	}
	// Jobs really queue behind the worker pool, and no delta batch is
	// rolled back.
	if w := out.values["jobq.wait_p90_ms"]; w <= 1 {
		t.Errorf("jobq.wait_p90_ms = %.3f; want jobs waiting for a worker (> 1 ms)", w)
	}
	if rb := out.values["session.rollbacks"]; rb != 0 {
		t.Errorf("session.rollbacks = %v; want 0", rb)
	}
}
