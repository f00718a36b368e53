package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"dbcc/internal/engine"
)

func op(name string, elapsed time.Duration, children ...*engine.OpMetrics) *engine.OpMetrics {
	return &engine.OpMetrics{Op: name, Elapsed: elapsed, Children: children}
}

func TestSelfTimesSumToRootAndNeverNegative(t *testing.T) {
	ms := time.Millisecond
	cases := map[string]*engine.OpMetrics{
		"chain": op("Project", 10*ms, op("Filter", 7*ms, op("Scan", 4*ms))),
		// A join's inputs run in parallel: 9ms + 8ms of children inside 12ms.
		"parallel children": op("HashJoin", 12*ms, op("Scan", 9*ms), op("GroupBy", 8*ms, op("Scan", 5*ms))),
		// Clock granularity can make a child read longer than its parent.
		"child longer than parent": op("Filter", 3*ms, op("Scan", 5*ms)),
		"zero elapsed":             op("Project", 0, op("Scan", 0)),
		"deep overlap":             op("UnionAll", 4*ms, op("Project", 6*ms, op("Scan", 6*ms)), op("Scan", 2*ms)),
	}
	for name, root := range cases {
		t.Run(name, func(t *testing.T) {
			out := map[string]time.Duration{}
			selfTimes(root, out)
			var sum time.Duration
			for op, d := range out {
				if d < 0 {
					t.Errorf("%s self time %v is negative", op, d)
				}
				sum += d
			}
			// Rounding each share to a nanosecond may cost one per operator.
			if diff := sum - root.Elapsed; diff < -5 || diff > 5 {
				t.Errorf("self times sum to %v, root elapsed %v (%v)", sum, root.Elapsed, out)
			}
		})
	}
}

func TestSelfTimesOfAChain(t *testing.T) {
	ms := time.Millisecond
	out := map[string]time.Duration{}
	selfTimes(op("Project", 10*ms, op("Filter", 7*ms, op("Scan", 4*ms))), out)
	want := map[string]time.Duration{"Project": 3 * ms, "Filter": 3 * ms, "Scan": 4 * ms}
	for k, v := range want {
		if out[k] != v {
			t.Errorf("%s: got %v, want %v", k, out[k], v)
		}
	}
}

func TestSelfTimesScaleOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	out := map[string]time.Duration{}
	// Children sum to 16ms inside an 8ms parent: the parent keeps nothing and
	// each child subtree is halved.
	selfTimes(op("HashJoin", 8*ms, op("Scan", 10*ms), op("GroupBy", 6*ms, op("Filter", 2*ms))), out)
	want := map[string]time.Duration{"HashJoin": 0, "Scan": 5 * ms, "GroupBy": 2 * ms, "Filter": 1 * ms}
	for k, v := range want {
		if out[k] != v {
			t.Errorf("%s: got %v, want %v", k, out[k], v)
		}
	}
}

// ring simulates a cluster's trace ring of the given capacity after n
// statements: it holds the last min(n, capacity) records, oldest first.
func ring(capacity int, n int64) []engine.TraceRecord {
	var out []engine.TraceRecord
	for s := max(0, n-int64(capacity)); s < n; s++ {
		out = append(out, engine.TraceRecord{Seq: s})
	}
	return out
}

func TestTraceDrainTakesEachStatementOnce(t *testing.T) {
	var d traceDrain
	var got []int64
	// Snapshots overlap, and the ring has wrapped by the later ones.
	for _, n := range []int64{3, 3, 10, 200, 256, 300, 511, 512} {
		for _, r := range d.take(ring(256, n)) {
			got = append(got, r.Seq)
		}
	}
	if len(got) != 512 {
		t.Fatalf("took %d records, want 512", len(got))
	}
	for i, s := range got {
		if s != int64(i) {
			t.Fatalf("record %d has Seq %d", i, s)
		}
	}
	if d.dropped != 0 {
		t.Errorf("dropped = %d, want 0", d.dropped)
	}
}

func TestTraceDrainCountsOverwrittenStatements(t *testing.T) {
	var d traceDrain
	d.take(ring(256, 100))
	// 400 more statements ran before the next snapshot: Seq 100..243 were
	// overwritten by the time the ring was read.
	recs := d.take(ring(256, 500))
	if len(recs) != 256 || recs[0].Seq != 244 {
		t.Fatalf("took %d records from Seq %d, want 256 from 244", len(recs), recs[0].Seq)
	}
	if d.dropped != 144 {
		t.Errorf("dropped = %d, want 144", d.dropped)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		name string
		ok   bool
	}{
		{0, "", false},
		{99, "", false},
		{100, "p90", true},
		{999, "p90", true},
		{1000, "p99", true},
		{9999, "p99", true},
		{10000, "p99.9", true},
		{1 << 20, "p99.9", true},
	}
	for _, c := range cases {
		name, q, ok := tailPercentile(c.n)
		if name != c.name || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %q, %v; want %q, %v", c.n, name, ok, c.name, c.ok)
			continue
		}
		if ok && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %s leaves %.1f samples beyond it", c.n, name, float64(c.n)*(1-q))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := median(xs); got != 500.5 {
		t.Errorf("median = %v, want 500.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if xs[0] != 1000 {
		t.Error("median sorted its input in place")
	}
	if got := median(nil); got != 0 || math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloadNames[i])
		}
		if _, ok := batchWorkloads[w.Name]; !ok && w.Name != "stream-index" {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
