package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sample is the cost of one measured call: wall time, process CPU time
// (user + sys from getrusage, so GC workers and every goroutine the call
// starts are included) and heap bytes allocated (the TotalAlloc delta).
type sample struct {
	wall, cpu float64 // seconds
	allocMB   float64
}

// meter brackets one measured call.
type meter struct {
	start time.Time
	cpu   float64
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{start: time.Now(), cpu: cpuSeconds(), alloc: ms.TotalAlloc}
}

func (m meter) stop() sample {
	wall := time.Since(m.start).Seconds()
	cpu := cpuSeconds() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{wall: wall, cpu: cpu, allocMB: float64(ms.TotalAlloc-m.alloc) / 1e6}
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set size so far (ru_maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// median returns the median of xs (0 for none); xs is not modified.
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

// column extracts one field of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
