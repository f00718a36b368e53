package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"dbcc/internal/engine"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
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

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []struct {
	name     string
	perMille int
}{{"p99.9", 999}, {"p99", 990}, {"p90", 900}}

// tailPercentile picks the highest tail percentile that has at least ten of
// n samples beyond it: p99.9 from 10,000 samples, p99 from 1,000, p90 from
// 100. It reports false when n is too small for any of them.
func tailPercentile(n int) (name string, q float64, ok bool) {
	for _, t := range tailPercentiles {
		if n*(1000-t.perMille) >= 10*1000 {
			return t.name, float64(t.perMille) / 1000, true
		}
	}
	return "", 0, false
}

// selfTimes attributes a statement's root elapsed time to the operators of
// its OpMetrics tree, adding each operator's share to out under its Op
// name. An operator's self time is its elapsed time minus its children's.
// Children of one operator may run in parallel, so their elapsed times can
// sum to more than the parent's; their subtrees are then scaled down to fit
// and the parent's self time is zero. The shares are never negative and sum
// to root.Elapsed.
func selfTimes(root *engine.OpMetrics, out map[string]time.Duration) {
	if root == nil {
		return
	}
	attribute(root, float64(root.Elapsed), out)
}

// attribute hands budget nanoseconds to the subtree at m.
func attribute(m *engine.OpMetrics, budget float64, out map[string]time.Duration) {
	var children float64
	for _, ch := range m.Children {
		children += float64(ch.Elapsed)
	}
	scale := 0.0
	if m.Elapsed > 0 {
		scale = budget / float64(m.Elapsed)
	}
	if children*scale > budget {
		scale = budget / children
	}
	self := budget - children*scale
	if self < 0 {
		self = 0
	}
	out[m.Op] += time.Duration(math.Round(self))
	for _, ch := range m.Children {
		attribute(ch, float64(ch.Elapsed)*scale, out)
	}
}

// traceDrain collects the statements of a cluster's trace ring exactly
// once. The ring holds the last few hundred statements oldest first, so
// successive snapshots overlap; records already taken are recognised by
// their Seq.
type traceDrain struct {
	next    int64 // lowest Seq not yet taken
	dropped int64 // statements overwritten before a snapshot saw them
}

// take returns the records of snap not taken before, in Seq order, and
// counts the statements that the ring overwrote between two snapshots.
func (d *traceDrain) take(snap []engine.TraceRecord) []engine.TraceRecord {
	var out []engine.TraceRecord
	for _, r := range snap {
		if r.Seq < d.next {
			continue
		}
		if r.Seq > d.next {
			d.dropped += r.Seq - d.next
		}
		out = append(out, r)
		d.next = r.Seq + 1
	}
	return out
}

// maxRSSMiB is the process's peak resident set size (getrusage high-water
// mark) in MiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the Go runtime counters the per-layer metrics take
// deltas of.
type runtimeSample struct {
	gcCPU    float64 // GC CPU seconds
	allocB   float64 // heap bytes allocated
	gcCycles float64 // completed GC cycles
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), allocB: v(1), gcCycles: v(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{gcCPU: a.gcCPU - b.gcCPU, allocB: a.allocB - b.allocB, gcCycles: a.gcCycles - b.gcCycles}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{gcCPU: a.gcCPU + b.gcCPU, allocB: a.allocB + b.allocB, gcCycles: a.gcCycles + b.gcCycles}
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

const mib = 1 << 20
