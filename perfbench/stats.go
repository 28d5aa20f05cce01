package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank rule; xs need not be sorted and is left unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

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

// tailQuantile is the highest quantile up to 0.99 that leaves at
// least ten samples beyond it: p99 from 1000 samples on, a lower
// percentile below that. It returns the quantile used.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 1
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resources is a process-wide reading taken at both ends of a timed
// phase.
type resources struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	rt      []metrics.Sample
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readResources() resources {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rt := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rt[i].Name = name
	}
	metrics.Read(rt)
	return resources{wall: time.Now(), cpu: processCPU(), mallocs: m.Mallocs, rt: rt}
}

// phase is the difference between two resource readings.
type phase struct {
	wall          time.Duration
	cpu           time.Duration
	mallocs       uint64
	gcCPUFraction float64
	gcPauseP99Ms  float64
}

func since(a resources) phase {
	b := readResources()
	p := phase{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs}
	gc := floatValue(b.rt[0]) - floatValue(a.rt[0])
	total := floatValue(b.rt[1]) - floatValue(a.rt[1])
	p.gcCPUFraction = div(gc, total)
	p.gcPauseP99Ms = 1000 * histDeltaQuantile(a.rt[2], b.rt[2], 0.99)
	return p
}

func floatValue(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// histDeltaQuantile returns the upper bound of the bucket holding the
// q-quantile of the observations made between two readings of one
// runtime histogram.
func histDeltaQuantile(a, b metrics.Sample, q float64) float64 {
	if a.Value.Kind() != metrics.KindFloat64Histogram || b.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Value.Float64Histogram(), b.Value.Float64Histogram()
	if len(ha.Counts) != len(hb.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		delta[i] = hb.Counts[i] - ha.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= want {
			up := hb.Buckets[i+1]
			if math.IsInf(up, 1) {
				up = hb.Buckets[i]
			}
			return up
		}
	}
	return 0
}

// settle collects garbage before a timed phase starts. The work that
// follows is the same on every run, so starting it from a fresh heap
// puts the collector's cycles at the same points of it: the searches a
// concurrent mark slows down, which set the tail latency, are then
// much the same ones from run to run.
func settle() { runtime.GC() }

// liveHeapMiB collects garbage and reports the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
