package main

import (
	"mrlegal/internal/core"
	"mrlegal/internal/sched"
)

// engineTotals sums a Legalizer's counters over the traced units that ran
// a full legalization.
type engineTotals struct {
	units          int
	legalizeS      float64
	phases         core.PhaseTimes
	st             core.Stats
	sc             sched.Counters
	plannerBudgetS float64 // legalize wall × planner goroutines
}

func (e *engineTotals) add(l *core.Legalizer, legalizeS float64, planners int) {
	e.units++
	e.legalizeS += legalizeS
	e.plannerBudgetS += legalizeS * float64(planners)
	ph := l.Phases()
	e.phases.Extract += ph.Extract
	e.phases.Enumerate += ph.Enumerate
	e.phases.Evaluate += ph.Evaluate
	e.phases.Realize += ph.Realize
	st := l.Stats()
	e.st.DirectPlacements += st.DirectPlacements
	e.st.MLLCalls += st.MLLCalls
	e.st.MLLSuccesses += st.MLLSuccesses
	e.st.MLLFailures += st.MLLFailures
	e.st.InsertionPoints += st.InsertionPoints
	e.st.CandidatesPruned += st.CandidatesPruned
	e.st.CellsPushed += st.CellsPushed
	e.st.RetryRounds += st.RetryRounds
	e.st.ExtractCacheHits += st.ExtractCacheHits
	e.st.ExtractCacheMisses += st.ExtractCacheMisses
	e.st.ExtractCacheInvalidations += st.ExtractCacheInvalidations
	sc := l.SchedCounters()
	e.sc.Dispatched += sc.Dispatched
	e.sc.Deferred += sc.Deferred
	e.sc.Invalidated += sc.Invalidated
}

// values stores the core.* and sched.* per-layer metrics: per-unit means
// for times and counts, and ratios over the summed counters. It reports
// whether the phase busy times fit the planners' busy budget.
func (e *engineTotals) values(v map[string]float64) bool {
	n := float64(max(e.units, 1))
	ph, st, sc := e.phases, e.st, e.sc
	v["core.legalize_s"] = e.legalizeS / n
	v["core.extract_busy_s"] = ph.Extract.Seconds() / n
	v["core.enumerate_busy_s"] = ph.Enumerate.Seconds() / n
	v["core.evaluate_busy_s"] = ph.Evaluate.Seconds() / n
	v["core.realize_busy_s"] = ph.Realize.Seconds() / n
	v["core.extract_share"] = ratio(ph.Extract.Seconds(), ph.Total().Seconds())
	v["core.extract_us_per_mll"] = ratio(float64(ph.Extract.Microseconds()), float64(st.MLLCalls))
	v["core.direct_ratio"] = ratio(float64(st.DirectPlacements), float64(st.DirectPlacements+st.MLLSuccesses))
	v["core.mll_calls"] = float64(st.MLLCalls) / n
	v["core.mll_fail_ratio"] = ratio(float64(st.MLLFailures), float64(st.MLLCalls))
	v["core.insertion_points"] = float64(st.InsertionPoints) / n
	v["core.prune_ratio"] = ratio(float64(st.CandidatesPruned), float64(st.CandidatesPruned+st.InsertionPoints))
	v["core.cells_pushed"] = float64(st.CellsPushed) / n
	v["core.retry_rounds"] = float64(st.RetryRounds) / n
	v["core.cache_hits"] = float64(st.ExtractCacheHits) / n
	v["core.cache_misses"] = float64(st.ExtractCacheMisses) / n
	v["core.cache_invalidations"] = float64(st.ExtractCacheInvalidations) / n
	lookups := st.ExtractCacheHits + st.ExtractCacheMisses + st.ExtractCacheInvalidations
	v["core.cache_hit_ratio"] = ratio(float64(st.ExtractCacheHits), float64(lookups))
	v["sched.dispatched"] = float64(sc.Dispatched) / n
	v["sched.deferred_per_dispatch"] = ratio(float64(sc.Deferred), float64(sc.Dispatched))
	v["sched.invalidated_ratio"] = ratio(float64(sc.Invalidated), float64(sc.Dispatched))
	return ph.Total().Seconds() <= e.plannerBudgetS*1.02
}

// zero stores 0 for every listed metric a workload does not exercise.
func zero(v map[string]float64, names ...string) {
	for _, n := range names {
		v[n] = 0
	}
}
