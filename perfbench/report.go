package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"dbcc/internal/engine"
)

// metric is one measured value with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report maps metric names to values.
type report map[string]metric

func (r report) set(name string, v float64, unit string) { r[name] = metric{Value: v, Unit: unit} }

// spec names one metric the result line must carry.
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run (BENCHMARK.json end_to_end).
var endToEnd = []spec{
	{"edges_per_s", "edges/s"},
	{"setup_s", "s"},
	{"max_rss_mib", "MiB"},
	{"bytes_written_mib", "MiB"},
}

// engineOps are the operator kinds whose self time and output rows the
// traced run reports, keyed by the lower-cased OpMetrics.Op name.
var engineOps = []string{"scan", "filter", "project", "hashjoin", "hashleftjoin", "groupby", "distinct", "unionall", "sort"}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
var perLayer = func() []spec {
	var out []spec
	for _, op := range engineOps {
		out = append(out, spec{"engine." + op + ".self_s", "s"}, spec{"engine." + op + ".rows", "count"})
	}
	return append(out,
		spec{"engine.materialise_s", "s"},
		spec{"engine.statements", "count"},
		spec{"engine.statement_s", "s"},
		spec{"engine.shuffle_mib", "MiB"},
		spec{"engine.bloom_skip_ratio", "ratio"},
		spec{"engine.peak_work_mib", "MiB"},
		spec{"engine.spill_mib", "MiB"},
		spec{"engine.spill_files", "count"},
		spec{"engine.spill_passes", "count"},
		spec{"engine.spill_kib_per_file", "KiB"},
		spec{"engine.insert_s", "s"},
		spec{"engine.insert_rows", "count"},
		spec{"engine.delete_s", "s"},
		spec{"engine.bytes_written_mib", "MiB"},
		spec{"engine.peak_space_mib", "MiB"},
		spec{"compidx.labels_touched_per_edge", "ratio"},
		spec{"compidx.merges", "count"},
		spec{"compidx.watch_events", "count"},
		spec{"compidx.seq_gaps", "count"},
		spec{"compidx.rebuilds", "count"},
		spec{"compidx.rebuild_s", "s"},
		spec{"ccalg.rounds", "count"},
		spec{"ccalg.round1_s", "s"},
		spec{"ccalg.tail_s", "s"},
		spec{"ccalg.queries", "count"},
		spec{"ccalg.live_edges_after_r1", "count"},
		spec{"ccalg.outside_engine_s", "s"},
		spec{"sql.parses", "count"},
		spec{"sql.plan_hit_rate", "ratio"},
		spec{"graph.load_s", "s"},
		spec{"unionfind.components_s", "s"},
		spec{"server.queue_p50_ms", "ms"},
		spec{"server.queue_p99_ms", "ms"},
		spec{"server.statements", "count"},
		spec{"server.shed", "count"},
		spec{"server.failed", "count"},
		spec{"client.outside_engine_ms", "ms"},
		spec{"runtime.gc_cpu_s", "s"},
		spec{"runtime.alloc_mib", "MiB"},
		spec{"runtime.gc_cycles", "count"},
		spec{"traced.edges_per_s", "edges/s"},
	)
}()

// outcome is what one workload run produced.
type outcome struct {
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	detail    report // every metric of the run, printed before the result
}

func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Metrics   report `json:"metrics"`
}

// write prints the detail line and then the result line, whose metrics are
// exactly want: a metric the run did not measure is reported as 0.
func (o *outcome) write(w io.Writer, workload string, want []spec) error {
	m := make(report, len(want))
	for _, s := range want {
		m.set(s.name, o.detail[s.name].Value, s.unit)
	}
	detail, err := json.Marshal(map[string]any{"workload": workload, "problems": o.problems, "detail": o.detail})
	if err != nil {
		return err
	}
	res, err := json.Marshal(result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, res)
	return err
}

// layerTotals accumulates the engine-layer numbers of traced statements.
type layerTotals struct {
	self                       map[string]time.Duration // operator self time by lower-cased Op
	rows                       map[string]int64         // operator output rows by lower-cased Op
	materialise                time.Duration
	statements                 int64
	statementTime              time.Duration
	bloomChecked, bloomSkipped int64
	insertTime, deleteTime     time.Duration
	insertRows                 int64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{self: map[string]time.Duration{}, rows: map[string]int64{}}
}

// add folds trace records into the totals.
func (l *layerTotals) add(recs []engine.TraceRecord) {
	for _, r := range recs {
		l.statements++
		l.statementTime += r.Elapsed
		switch r.Kind {
		case "insert":
			l.insertTime += r.Elapsed
			l.insertRows += r.Rows
		case "delete":
			l.deleteTime += r.Elapsed
		case "create":
			if r.Root != nil {
				l.materialise += r.Elapsed - r.Root.Elapsed
			}
		}
		if r.Root == nil {
			continue
		}
		self := map[string]time.Duration{}
		selfTimes(r.Root, self)
		for op, d := range self {
			l.self[strings.ToLower(op)] += d
		}
		l.walk(r.Root)
	}
}

func (l *layerTotals) walk(m *engine.OpMetrics) {
	l.rows[strings.ToLower(m.Op)] += m.Rows
	l.bloomChecked += m.BloomChecked
	l.bloomSkipped += m.BloomSkipped
	for _, ch := range m.Children {
		l.walk(ch)
	}
}

// fill writes the engine metrics into r, each divided by per (the number of
// operations the totals cover).
func (l *layerTotals) fill(r report, per float64) {
	for _, op := range engineOps {
		r.set("engine."+op+".self_s", l.self[op].Seconds()/per, "s")
		r.set("engine."+op+".rows", float64(l.rows[op])/per, "count")
	}
	r.set("engine.materialise_s", l.materialise.Seconds()/per, "s")
	r.set("engine.statements", float64(l.statements)/per, "count")
	r.set("engine.statement_s", l.statementTime.Seconds()/per, "s")
	r.set("engine.bloom_skip_ratio", ratio(float64(l.bloomSkipped), float64(l.bloomChecked)), "ratio")
	r.set("engine.delete_s", l.deleteTime.Seconds()/per, "s")
}

// fillStats writes the engine counters of a Stats delta into r, each divided
// by per.
func fillStats(r report, st engine.Stats, per float64) {
	r.set("engine.shuffle_mib", float64(st.ShuffleBytes)/mib/per, "MiB")
	r.set("engine.spill_mib", float64(st.SpilledBytes)/mib/per, "MiB")
	r.set("engine.spill_files", float64(st.SpillPartitions)/per, "count")
	r.set("engine.spill_passes", float64(st.SpillPasses)/per, "count")
	r.set("engine.spill_kib_per_file", ratio(float64(st.SpilledBytes)/1024, float64(st.SpillPartitions)), "KiB")
	r.set("sql.parses", float64(st.Parses)/per, "count")
	r.set("sql.plan_hit_rate", ratio(float64(st.PlanCacheHits), float64(st.PlanCacheHits+st.PlanCacheMisses)), "ratio")
}

// fillRuntime writes runtime counter deltas into r, each divided by per.
func fillRuntime(r report, rt runtimeSample, per float64) {
	r.set("runtime.gc_cpu_s", rt.gcCPU/per, "s")
	r.set("runtime.alloc_mib", rt.allocB/mib/per, "MiB")
	r.set("runtime.gc_cycles", rt.gcCycles/per, "count")
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
