package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, a "p90" is just one of the slowest few ops.
const minBeyond = 10

// quantile returns the p-quantile of xs, interpolated between order
// statistics, and whether at least minBeyond samples lie above it.
func quantile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || n-int(math.Ceil(p*float64(n)-1e-9)) < minBeyond {
		return 0, false
	}
	return rawQuantile(xs, p), true
}

// rawQuantile is quantile without the sample-count rule.
func rawQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// readRuntime reads one runtime/metrics counter, without stopping the
// world the way runtime.ReadMemStats does.
func readRuntime(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 { return readRuntime("/gc/heap/allocs:bytes") }

const mib = 1 << 20

// heapLiveMB collects garbage and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	return float64(readRuntime("/gc/heap/live:bytes")) / mib
}

// repeatSetup runs setup reps times, each after a collection so earlier
// repetitions' garbage does not tax later ones, and returns the last
// repetition's state with the median set-up time in seconds.
func repeatSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var state T
	var secs []float64
	for i := 0; i < reps; i++ {
		var zero T
		state = zero
		runtime.GC()
		start := time.Now()
		s, err := setup()
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return state, 0, err
		}
		state = s
	}
	return state, rawQuantile(secs, 0.5), nil
}

// loopStats is what a measured loop leaves behind for the end-to-end
// metrics.
type loopStats struct {
	opMS   []float64     // op latencies
	wall   time.Duration // loop wall time
	cpu    time.Duration // process CPU time over the loop
	peakMB float64       // resident-set high-water mark, read before any referee work
}

// clock brackets a measured loop.
type clock struct {
	start time.Time
	cpu0  time.Duration
}

func startClock() clock { return clock{start: time.Now(), cpu0: cpuTime()} }

// stop closes the loop's wall, CPU and peak-memory readings into ls.
func (c clock) stop(ls *loopStats) {
	ls.wall = time.Since(c.start)
	ls.cpu = cpuTime() - c.cpu0
	ls.peakMB = peakRSSMB()
}

// endToEnd fills the end-to-end metrics, the same set on every workload.
// A loop too short for a median with minBeyond ops above it is an error,
// not a result with a metric missing.
func endToEnd(res *result, setupS float64, ls loopStats) error {
	p50, ok := quantile(ls.opMS, 0.5)
	if !ok {
		return fmt.Errorf("%d ops are too few for a median", len(ls.opMS))
	}
	ops := float64(len(ls.opMS))
	res.set("setup_s", setupS, "s")
	res.set("op_p50_ms", p50, "ms")
	res.set("ops_per_s", ops/ls.wall.Seconds(), "1/s")
	res.set("cpu_ms_per_op", ms(ls.cpu)/ops, "ms")
	res.set("peak_rss_mb", ls.peakMB, "MB")
	return nil
}
