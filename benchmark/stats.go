package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// processCPU returns the CPU time the process has used, user plus
// system, across all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupTimes collects the CPU and wall time of each set-up repeat.
type setupTimes struct {
	cpu, wall []float64
	wall0     time.Time
	cpu0      time.Duration
}

func (s *setupTimes) start() { s.wall0, s.cpu0 = time.Now(), processCPU() }

func (s *setupTimes) stop() {
	s.wall = append(s.wall, time.Since(s.wall0).Seconds())
	s.cpu = append(s.cpu, (processCPU() - s.cpu0).Seconds())
}

// values stores setup_s, the median CPU time of the repeats, and
// setup_wall_s, their median wall time.
func (s *setupTimes) values(v map[string]float64) {
	v["setup_s"] = median(s.cpu)
	v["setup_wall_s"] = median(s.wall)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// startTimedPhase returns the process to a quiet state after set-up —
// garbage collected and freed to the OS — and resets the kernel's
// resident-set high-water mark, so peakRSSMB covers the timed phase only.
func startTimedPhase() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux >= 4.0). Where it is
	// not permitted the peak also covers set-up, which only overstates.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stealSeconds reads the machine-wide CPU time the hypervisor took from
// this guest (the steal column of /proc/stat), or 0 where unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// goCounters are cumulative Go runtime counters, read at unit
// boundaries outside the timed window.
type goCounters struct {
	allocBytes, gcCycles uint64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGoCounters() goCounters {
	metrics.Read(goSamples)
	return goCounters{allocBytes: goSamples[0].Value.Uint64(), gcCycles: goSamples[1].Value.Uint64()}
}

// perUnit stores the allocation and GC-cycle rates between two readings.
func (c goCounters) perUnit(later goCounters, units int, values map[string]float64) {
	n := float64(max(units, 1))
	values["go.alloc_mb_per_unit"] = float64(later.allocBytes-c.allocBytes) / (1 << 20) / n
	values["go.gc_cycles_per_unit"] = float64(later.gcCycles-c.gcCycles) / n
}
