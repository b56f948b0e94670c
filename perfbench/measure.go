package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// procStats is a snapshot of the process-wide counters the benchmark turns
// into per-op figures: CPU time from getrusage (it includes the GC workers,
// on whichever processor they ran) and allocation and GC counts from
// runtime/metrics.
type procStats struct {
	wall      time.Time
	cpu       time.Duration
	maxRSSKB  int64
	allocB    float64
	allocObjs float64
	gcCycles  float64
	gcCPU     float64 // seconds, the runtime's estimate
	busyCPU   float64 // seconds of non-idle CPU, the runtime's estimate
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func snapshot() procStats {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return procStats{
		wall:      time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB:  ru.Maxrss,
		allocB:    val(0),
		allocObjs: val(1),
		gcCycles:  val(2),
		gcCPU:     val(3),
		busyCPU:   val(4) - val(5),
	}
}

// usage accumulates process counters over measured intervals, so that work
// done between ops — output checks, trace bookkeeping — stays out of every
// figure.
type usage struct {
	ops       int
	wall      time.Duration
	cpu       time.Duration
	allocB    float64
	allocObjs float64
	gcCycles  float64
	gcCPU     float64
	busyCPU   float64
}

func (u *usage) add(before, after procStats) {
	u.wall += after.wall.Sub(before.wall)
	u.cpu += after.cpu - before.cpu
	u.allocB += after.allocB - before.allocB
	u.allocObjs += after.allocObjs - before.allocObjs
	u.gcCycles += after.gcCycles - before.gcCycles
	u.gcCPU += after.gcCPU - before.gcCPU
	u.busyCPU += after.busyCPU - before.busyCPU
}

func (u *usage) perOp(v float64) float64 { return v / float64(u.ops) }

// gcFrac is the share of the runtime's busy CPU estimate spent in GC. The
// runtime updates its CPU classes at the end of each GC cycle, so the share
// is only meaningful over intervals that span several cycles.
func (u *usage) gcFrac() float64 {
	if u.busyCPU <= 0 {
		return 0
	}
	return u.gcCPU / u.busyCPU
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples strictly above the q-quantile: a percentile is
// admissible only with at least ten of them.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
