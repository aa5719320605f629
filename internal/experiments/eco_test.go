package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mrlegal/internal/bengen"
	"mrlegal/internal/core"
)

func TestRunEcoSmoke(t *testing.T) {
	rep := RunEco(EcoConfig{Sizes: []int{800}, DeltaFracs: []float64{0.01}, Repeats: 1})
	if rep.SchemaVersion != BenchSchemaVersion {
		t.Fatalf("schema version = %d", rep.SchemaVersion)
	}
	if len(rep.Benches) != 1 || len(rep.Benches[0].Runs) != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	run := rep.Benches[0].Runs[0]
	if run.Err != "" {
		t.Fatalf("run failed: %s", run.Err)
	}
	if !run.Legal || !run.FixedPoint {
		t.Fatalf("incremental result unverified: legal=%v fixed=%v", run.Legal, run.FixedPoint)
	}
	if run.Deltas != 8 {
		t.Fatalf("deltas = %d, want 1%% of 800", run.Deltas)
	}
	if run.WallIncrementalSeconds <= 0 || run.WallFullSeconds <= 0 {
		t.Fatalf("missing wall times: %+v", run)
	}
	if run.WallIncrementalMaxSeconds < run.WallIncrementalSeconds || run.WallFullMaxSeconds < run.WallFullSeconds {
		t.Fatalf("max wall below min wall: %+v", run)
	}
	// The honesty gate: a speedup needs a verified run whose repeat
	// spreads do not overlap; core count plays no part in a serial-vs-
	// serial comparison. Wall times are reported either way.
	if run.SpeedupValid != (run.WallIncrementalMaxSeconds < run.WallFullSeconds) {
		t.Fatalf("speedup_valid=%v disagrees with inc max %v < full min %v",
			run.SpeedupValid, run.WallIncrementalMaxSeconds, run.WallFullSeconds)
	}
	if !run.SpeedupValid && run.SpeedupVsFull != 0 {
		t.Fatalf("ungated speedup %v", run.SpeedupVsFull)
	}
	if run.SpeedupValid && run.SpeedupVsFull != run.WallFullSeconds/run.WallIncrementalSeconds {
		t.Fatalf("speedup %v is not full min / inc min", run.SpeedupVsFull)
	}
	if rep.SpeedupValid != run.SpeedupValid {
		t.Fatalf("report speedup_valid=%v with its only run at %v", rep.SpeedupValid, run.SpeedupValid)
	}

	var buf bytes.Buffer
	if err := WriteEcoJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back EcoReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Benches[0].Runs[0].Checksum != run.Checksum {
		t.Fatal("JSON roundtrip lost the checksum")
	}
	PrintEco(&buf, rep)
}

// TestEcoSpeedupGate pins the gate on its inputs: verification and
// non-overlapping repeat spreads, never the machine's core count.
func TestEcoSpeedupGate(t *testing.T) {
	ok := EcoRun{Legal: true, FixedPoint: true,
		WallIncrementalSeconds: 0.001, WallIncrementalMaxSeconds: 0.002,
		WallFullSeconds: 0.01, WallFullMaxSeconds: 0.02}
	for _, tc := range []struct {
		name string
		mut  func(*EcoRun)
		want bool
	}{
		{"separated spreads", func(*EcoRun) {}, true},
		{"overlapping spreads", func(r *EcoRun) { r.WallIncrementalMaxSeconds = 0.011 }, false},
		{"touching spreads", func(r *EcoRun) { r.WallIncrementalMaxSeconds = r.WallFullSeconds }, false},
		{"illegal", func(r *EcoRun) { r.Legal = false }, false},
		{"not a fixed point", func(r *EcoRun) { r.FixedPoint = false }, false},
		{"errored", func(r *EcoRun) { r.Err = "boom" }, false},
	} {
		r := ok
		tc.mut(&r)
		if got := r.speedupGate(); got != tc.want {
			t.Errorf("%s: gate = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEcoEquivalence is the CI equivalence smoke (docs/PERFORMANCE.md
// §9): on a Table-1 subset, an ECO session built over designs legalized
// with workers {1, 4} × extraction cache {on, off} must stay legal and
// pass the fixed-point oracle after a mixed delta batch, and — for a
// fixed worker count — the post-batch placement must be byte-identical
// with the cache on and off (the cache is an accelerator, never a result
// input).
func TestEcoEquivalence(t *testing.T) {
	specs := bengen.Table1Specs(800)
	subset := map[string]bool{"fft_a": true, "pci_bridge32_b": true}
	for _, spec := range specs {
		if !subset[spec.Name] {
			continue
		}
		b := bengen.Generate(spec)
		for _, workers := range []int{1, 4} {
			checksums := make(map[bool]string)
			for _, cache := range []bool{true, false} {
				name := fmt.Sprintf("%s/w%d/cache=%v", spec.Name, workers, cache)
				d := b.D.Clone()
				cfg := core.DefaultConfig()
				cfg.Workers = workers
				cfg.ExtractCache = cache
				l, err := core.NewLegalizer(d, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if _, err := l.LegalizeBestEffort(context.Background()); err != nil {
					t.Fatalf("%s: legalize: %v", name, err)
				}
				ses, err := core.NewSession(l)
				if err != nil {
					t.Fatalf("%s: session: %v", name, err)
				}
				deltas := ecoDeltas(d, 12, 42)
				deltas = append(deltas,
					core.Delta{Op: core.DeltaInsert, Master: 0, TX: deltas[0].TX, TY: deltas[0].TY},
					core.Delta{Op: core.DeltaDelete, Cell: deltas[1].Cell},
				)
				if _, err := ses.ApplyDelta(context.Background(), deltas); err != nil {
					t.Fatalf("%s: apply: %v", name, err)
				}
				if v := ses.Verify(4); len(v) != 0 {
					t.Fatalf("%s: %d violations after batch: %v", name, len(v), v[0])
				}
				fp, err := ses.FixedPoint(context.Background())
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				if !fp {
					t.Fatalf("%s: fixed-point oracle failed", name)
				}
				checksums[cache] = fmt.Sprintf("%016x", d.PlacementChecksum())
			}
			if checksums[true] != checksums[false] {
				t.Fatalf("%s workers=%d: cache changed the result: on=%s off=%s",
					spec.Name, workers, checksums[true], checksums[false])
			}
		}
	}
}
