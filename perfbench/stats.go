package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (ru_maxrss, which
// Linux reports in KiB and is the process's VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostTicks reads the machine's CPU time from /proc/stat: the ticks the
// hypervisor stole from this guest and all ticks. Both are 0 where the
// file is not available.
func hostTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealFrac is the share of the machine's CPU time stolen between two
// hostTicks readings.
func stealFrac(s0, t0, s1, t1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// refSink keeps the reference loop's result observable.
var refSink uint64

// refLoopMS times a fixed, allocation-free CPU loop (median of three).
// Run before and after a workload, it separates a host that slowed down
// from a program that did.
func refLoopMS() float64 {
	var runs []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink += x
		runs = append(runs, ms(time.Since(start)))
	}
	return quantile(runs, 0.5)
}

// diag carries the run's noise diagnostics.
type diag struct {
	allocKBPerCycle float64
	gcCycles        float64
	gcPauseMS       float64
	refBefore       float64
	refAfter        float64
	// stealFrac is the median over epochs of the share of the machine's
	// CPU time the hypervisor stole during the timed loop.
	stealFrac float64
}

func (d diag) refLoop() float64 { return (d.refBefore + d.refAfter) / 2 }

func (d diag) String() string {
	return fmt.Sprintf(`{"go.alloc_kb_per_cycle":%.6g,"go.gc_cycles_per_epoch":%.6g,"go.gc_pause_ms_per_epoch":%.6g,"host.ref_loop_ms_before":%.6g,"host.ref_loop_ms_after":%.6g,"host.steal_frac":%.4g}`,
		d.allocKBPerCycle, d.gcCycles, d.gcPauseMS, d.refBefore, d.refAfter, d.stealFrac)
}

func diagnostics(t *tally, before, after float64) diag {
	d := diag{refBefore: before, refAfter: after, stealFrac: quantile(t.epochSteal, 0.5)}
	if t.attempted > 0 {
		d.allocKBPerCycle = float64(t.alloc) / 1024 / float64(t.attempted)
	}
	if t.epochs > 0 {
		d.gcCycles = float64(t.gcCycles) / float64(t.epochs)
		d.gcPauseMS = ms(t.gcPause) / float64(t.epochs)
	}
	return d
}

// endToEnd renders the untraced run's end-to-end metrics.
func endToEnd(t *tally) map[string]metric {
	n := float64(t.attempted)
	return map[string]metric{
		"cycle_p50_ms":     {quantile(t.epochP50, 0.5), "ms"},
		"cycle_p90_ms":     {quantile(t.epochP90, 0.5), "ms"},
		"cycles_per_s":     {quantile(t.epochRate, 0.5), "1/s"},
		"cpu_ms_per_cycle": {quantile(t.epochCPU, 0.5), "ms"},
		"ack_p50_ms":       {quantile(t.epochAck, 0.5), "ms"},
		"preserved_mean":   {mean(t.preserved), "fraction"},
		"verified_frac":    {float64(t.verified) / n, "fraction"},
		"complete_frac":    {float64(t.answered-t.truncated) / n, "fraction"},
		"setup_s":          {quantile(t.setups, 0.5), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MiB"},
	}
}
