package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dbcc"
	"dbcc/internal/ccalg"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/unionfind"
	"dbcc/internal/verify"
)

// batchWorkload is a connected-components analysis of one table loaded
// once: every operation is one default rc run over it, from one caller.
type batchWorkload struct {
	graph  func(seed uint64) *graph.Graph
	config dbcc.Config
}

// repeat calls fn at least minRepeats times, and more until the times it
// reports add up to minRepeatTime, and returns those times in seconds; fn
// learns whether its call is the last. Set-up and Union/Find times are
// medians over such repeats.
func repeat(fn func(last bool) (time.Duration, error)) ([]float64, error) {
	const minRepeats, maxRepeats, minRepeatTime = 5, 50, time.Second
	var times []float64
	var total time.Duration
	for i := 0; ; i++ {
		last := i+1 >= maxRepeats || (i+1 >= minRepeats && total >= minRepeatTime)
		d, err := fn(last)
		if err != nil {
			return nil, err
		}
		total += d
		times = append(times, d.Seconds())
		if last {
			return times, nil
		}
	}
}

// timed runs fn and returns its wall time. It collects the garbage first,
// outside the timed region, so no timed call pays for the garbage of the
// calls before it.
func timed(fn func()) time.Duration {
	runtime.GC()
	start := time.Now()
	fn()
	return time.Since(start)
}

const edgeTable = "edges"

// runBatch generates the graph, loads it, and then runs rc over the table,
// each run followed by a Union/Find run, until the window has passed.
// Untraced runs go through dbcc.ConnectedComponentsOf; traced runs call the
// same driver through ccalg with a per-round hook that drains the trace.
func runBatch(w batchWorkload, seed uint64, window time.Duration, traced bool) (*outcome, error) {
	o := &outcome{correct: true, detail: report{}}
	g := w.graph(seed)
	edges := float64(len(g.Edges))
	db := dbcc.Open(w.config)
	defer db.Close()
	c := db.Cluster()

	// Set-up: load the edge list, several times; the last load stays.
	loads := newLayerTotals()
	var drain traceDrain
	loadTimes, err := repeat(func(last bool) (time.Duration, error) {
		var err error
		d := timed(func() { err = db.LoadGraph(edgeTable, g) })
		if err != nil {
			return 0, fmt.Errorf("load: %w", err)
		}
		loads.add(drain.take(c.Trace()))
		if !last {
			err = c.DropTable(edgeTable)
		}
		return d, err
	})
	if err != nil {
		return nil, err
	}
	oracle := unionfind.Components(g)

	// Warm-up run: fills the plan cache and checks the labelling with the
	// full verifier before anything is timed.
	warm, err := db.ConnectedComponentsOf(edgeTable, dbcc.Params{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	if err := verify.Labelling(g, warm.Labels); err != nil {
		o.fail("warm-up labelling: %v", err)
	}
	input := c.LiveBytes()
	counts := runCounts{
		rounds:       warm.Rounds,
		bytesWritten: warm.Stats.BytesWritten,
		peakSpace:    warm.Stats.PeakBytes - input,
		spillFiles:   warm.Stats.SpillPartitions,
	}

	var runTimes, ufTimes []float64
	var tr *batchTrace
	if traced {
		tr = newBatchTrace()
	}
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		o.attempted++
		var labels graph.Labelling
		var got runCounts
		var elapsed time.Duration
		if traced {
			labels, got, elapsed, err = tr.run(db, seed, input)
		} else {
			var res *dbcc.Result
			// Every run starts from the same resident set: freed memory goes
			// back to the system, so max_rss_mib is the peak of one run.
			debug.FreeOSMemory()
			elapsed = timed(func() {
				res, err = db.ConnectedComponentsOf(edgeTable, dbcc.Params{Seed: seed})
			})
			if err == nil {
				labels = res.Labels
				got = runCounts{res.Rounds, res.Stats.BytesWritten, res.Stats.PeakBytes - input, res.Stats.SpillPartitions}
			}
		}
		if err != nil {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("run %d: %v", o.attempted, err))
			continue
		}
		runTimes = append(runTimes, elapsed.Seconds())
		// Union/Find runs after every rc run, so both medians of the
		// vs_unionfind ratio sample the machine over the same minutes.
		ufTimes = append(ufTimes, timed(func() { unionfind.Components(g) }).Seconds())
		if err := verify.Equivalent(labels, oracle); err != nil {
			o.fail("run %d labelling: %v", o.attempted, err)
		}
		if got != counts {
			o.fail("run %d counts %+v differ from the warm-up run's %+v", o.attempted, got, counts)
		}
	}
	if len(runTimes) == 0 {
		o.fail("no rc run completed")
		return o, nil
	}

	runS, ufS := median(runTimes), median(ufTimes)
	d := o.detail
	d.set("edges_per_s", edges/runS, "edges/s")
	d.set("vs_unionfind", runS/ufS, "ratio")
	d.set("setup_s", median(loadTimes), "s")
	d.set("max_rss_mib", maxRSSMiB(), "MiB")
	d.set("error_rate", float64(o.failed)/float64(o.attempted), "ratio")
	d.set("cc_run_p50_ms", runS*1000, "ms")
	d.set("cc_runs", float64(len(runTimes)), "count")
	d.set("unionfind_s", ufS, "s")
	d.set("edges", edges, "count")
	d.set("rounds", float64(counts.rounds), "count")
	d.set("bytes_written_mib", float64(counts.bytesWritten)/mib, "MiB")
	d.set("peak_space_mib", float64(counts.peakSpace)/mib, "MiB")
	d.set("engine.spill_files", float64(counts.spillFiles), "count")
	d.set("compidx.rebuilds", 0, "count")
	if !traced {
		return o, nil
	}

	n := float64(len(runTimes))
	tr.layers.fill(d, n)
	fillStats(d, tr.stats, n)
	fillRuntime(d, tr.runtime, n)
	d.set("engine.peak_work_mib", float64(tr.peakWork)/mib, "MiB")
	d.set("engine.insert_s", loads.insertTime.Seconds()/float64(len(loadTimes)), "s")
	d.set("engine.insert_rows", float64(loads.insertRows)/float64(len(loadTimes)), "count")
	d.set("engine.bytes_written_mib", float64(counts.bytesWritten)/mib, "MiB")
	d.set("engine.peak_space_mib", float64(counts.peakSpace)/mib, "MiB")
	d.set("ccalg.rounds", float64(counts.rounds), "count")
	d.set("ccalg.round1_s", tr.round1.Seconds()/n, "s")
	d.set("ccalg.tail_s", tr.tail.Seconds()/n, "s")
	d.set("ccalg.queries", float64(tr.stats.Queries)/n, "count")
	d.set("ccalg.live_edges_after_r1", float64(tr.liveEdgesR1), "count")
	d.set("ccalg.outside_engine_s", (tr.wall.Seconds()-tr.layers.statementTime.Seconds())/n, "s")
	d.set("graph.load_s", median(loadTimes), "s")
	d.set("unionfind.components_s", ufS, "s")
	d.set("traced.edges_per_s", edges/runS, "edges/s")
	return o, nil
}

// runCounts are the exact counts of one rc run, which repeat for a fixed
// graph and seed.
type runCounts struct {
	rounds       int
	bytesWritten int64
	peakSpace    int64
	spillFiles   int64
}

// batchTrace accumulates the per-layer numbers of traced rc runs.
type batchTrace struct {
	layers      *layerTotals
	stats       dbcc.Stats // summed counters of every traced run
	peakWork    int64
	runtime     runtimeSample
	wall        time.Duration
	round1      time.Duration
	tail        time.Duration
	liveEdgesR1 int64
}

func newBatchTrace() *batchTrace { return &batchTrace{layers: newLayerTotals()} }

// run makes one traced rc run: it resets the engine counters as
// dbcc.ConnectedComponentsOf does, timestamps every round, and drains the
// trace ring at each round boundary so no statement is overwritten.
func (t *batchTrace) run(db *dbcc.DB, seed uint64, input int64) (graph.Labelling, runCounts, time.Duration, error) {
	c := db.Cluster()
	info, _ := ccalg.ByName(dbcc.RandomisedContraction)
	c.ResetStats()
	var drain traceDrain
	var recs []engine.TraceRecord // folded into t.layers after the run
	var roundEnds []time.Time
	debug.FreeOSMemory() // as before an untraced run
	rt0 := readRuntime()
	start := time.Now()
	res, err := info.Run(c, edgeTable, ccalg.Options{
		Seed: seed,
		OnRound: func(rs ccalg.RoundStats) {
			roundEnds = append(roundEnds, time.Now())
			if rs.Round == 1 {
				t.liveEdgesR1 = rs.LiveEdges
			}
			recs = append(recs, drain.take(c.Trace())...)
		},
	})
	end := time.Now()
	t.runtime = t.runtime.add(readRuntime().sub(rt0))
	if err != nil {
		return nil, runCounts{}, 0, err
	}
	t.layers.add(append(recs, drain.take(c.Trace())...))
	if drain.dropped > 0 {
		return nil, runCounts{}, 0, fmt.Errorf("trace ring dropped %d statements", drain.dropped)
	}
	st := c.Stats()
	t.stats = addStats(t.stats, st, 1)
	t.peakWork = max(t.peakWork, st.PeakWorkBytes)
	t.wall += end.Sub(start)
	if len(roundEnds) > 0 {
		t.round1 += roundEnds[0].Sub(start)
		t.tail += end.Sub(roundEnds[0])
	}
	return res.Labels, runCounts{res.Rounds, st.BytesWritten, st.PeakBytes - input, st.SpillPartitions}, end.Sub(start), nil
}
