package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile (rank ceil(p*n)).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// percentileOK reports whether a p-th percentile of n samples has at
// least minBeyond samples beyond it.
func percentileOK(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle value of xs (the mean of the middle two for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the rule the
// steadiness check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// Runtime metric names read through runtime/metrics.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mLive     = "/gc/heap/live:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU   = "/cpu/classes/total:cpu-seconds"
)

// rtSample is one reading of the runtime counters the benchmark uses.
type rtSample struct {
	allocs, gcCycles uint64
	gcCPU, allCPU    float64
}

var rtNames = []string{mAllocs, mGCCycles, mGCCPU, mAllCPU}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		allCPU:   s[3].Value.Float64(),
	}
}

// allocCounter reads the cumulative heap allocation counter cheaply: one
// reusable sample slot, so a phase timer can take a delta around a call.
type allocCounter struct{ s [1]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.s[0].Name = mAllocs
	return a
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64()
}

// heapLiveMB forces a garbage collection and returns the live heap in MB
// as the collector measured it. Everything reachable from keep stays
// alive across the collection, so the reading covers the workload's
// retained state (warm caches, checkpoints, cells).
func heapLiveMB(keep any) float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mLive}}
	metrics.Read(s)
	runtime.KeepAlive(keep)
	return float64(s[0].Value.Uint64()) / 1e6
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
