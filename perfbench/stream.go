package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"dbcc/internal/client"
	"dbcc/internal/datagen"
	"dbcc/internal/engine"
	"dbcc/internal/graph"
	"dbcc/internal/server"
	"dbcc/internal/unionfind"
	"dbcc/internal/verify"
	"dbcc/internal/wire"
)

// The stream-index workload: an in-process server with one indexed tenant
// table, fed by closed-loop ingest connections.
const (
	streamTenant   = "bench"
	streamVertices = 20000 // Friendster-shaped preload: vertices ...
	streamDegree   = 10    // ... times edges per new vertex = 200,000 edges
	ingestConns    = 2
	insertEdges    = 32  // 64 parameters, the parser's maximum
	deleteEvery    = 128 // every 128th op of connection 0 is a DELETE
	tracePoll      = 2 * time.Millisecond
)

// streamPhys is the catalog name of the tenant's edges table.
const streamPhys = "tn_" + streamTenant + "_" + edgeTable

// insertSQL is the prepared statement of one ingest op.
var insertSQL = func() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + edgeTable + " VALUES ")
	for i := 0; i < insertEdges; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "($%d, $%d)", 2*i+1, 2*i+2)
	}
	return b.String()
}()

// rig is one started server with its connections.
type rig struct {
	srv    *server.Server
	served chan error
	conns  []*client.Client
	stmts  []*client.Stmt
	watch  *client.Watch
}

// startRig starts a server, preloads the tenant table, indexes it, and
// opens the ingest connections and the watcher.
func startRig(g *graph.Graph) (r *rig, err error) {
	r = &rig{srv: server.New(server.Config{Addr: "127.0.0.1:0"}), served: make(chan error, 1)}
	if err := r.srv.Listen(); err != nil {
		return nil, err
	}
	go func() { r.served <- r.srv.Serve() }()
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if err := r.srv.DB().LoadGraph(streamPhys, g); err != nil {
		return r, err
	}
	for i := 0; i < ingestConns; i++ {
		c, err := client.Dial(r.srv.Addr(), streamTenant, "")
		if err != nil {
			return r, err
		}
		r.conns = append(r.conns, c)
		if i == 0 {
			if _, _, err := c.Exec("CREATE COMPONENT INDEX ON " + edgeTable); err != nil {
				return r, err
			}
		}
		st, err := c.Prepare(insertSQL)
		if err != nil {
			return r, err
		}
		r.stmts = append(r.stmts, st)
	}
	wc, err := client.Dial(r.srv.Addr(), streamTenant, "")
	if err != nil {
		return r, err
	}
	if r.watch, err = wc.Subscribe(edgeTable); err != nil {
		wc.Close()
		return r, err
	}
	return r, nil
}

// close ends the watch and the connections and drains the server; it
// returns once the server's accept loop has exited.
func (r *rig) close() error {
	for _, c := range r.conns {
		c.Close()
	}
	if r.watch != nil {
		r.watch.Close()
		for range r.watch.Events() {
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serveErr := <-r.served; err == nil {
		err = serveErr
	}
	return err
}

// connTally is one ingest connection's record of the window.
type connTally struct {
	inserts, deletes, shed, failed int64
	insertLat, queued, deleteLat   []time.Duration
	problem                        error
}

// ingest drives one connection in a closed loop until the deadline: each
// op waits for its acknowledgement before the next is sent.
func ingest(r *rig, id int, g *graph.Graph, seed uint64, deadline time.Time, t *connTally) {
	rng := rand.New(rand.NewPCG(seed, uint64(id)+1))
	c, st := r.conns[id], r.stmts[id]
	args := make([]wire.Arg, 2*insertEdges)
	span := int64(2 * streamVertices) // new vertices as well as merges
	for op := 0; time.Now().Before(deadline); op++ {
		var err error
		start := time.Now()
		if id == 0 && op%deleteEvery == deleteEvery-1 {
			v := g.Edges[rng.IntN(len(g.Edges))].V
			_, _, err = c.Exec(fmt.Sprintf("DELETE FROM %s WHERE v1 = %d", edgeTable, v))
			if err == nil {
				t.deletes++
				t.deleteLat = append(t.deleteLat, time.Since(start))
			}
		} else {
			for i := range args {
				args[i] = client.Int(1 + rng.Int64N(span))
			}
			start = time.Now()
			var q time.Duration
			_, q, err = st.Exec(args...)
			if err == nil {
				t.inserts++
				t.insertLat = append(t.insertLat, time.Since(start))
				t.queued = append(t.queued, q)
			}
		}
		switch {
		case err == nil:
		case client.IsOverloaded(err):
			t.shed++
		default:
			t.failed++
			t.problem = err
			return // the connection's state is unknown; stop its loop
		}
	}
}

// runStream sets the server up several times (keeping the last), then
// runs the ingest connections and the watcher for the window and checks
// the maintained labelling against Union/Find over the final table.
func runStream(seed uint64, window time.Duration, traced bool) (*outcome, error) {
	o := &outcome{correct: true, detail: report{}}
	g := datagen.Friendster(streamVertices, streamDegree, seed)

	var r *rig
	setupTimes, err := repeat(func(last bool) (time.Duration, error) {
		var err error
		d := timed(func() { r, err = startRig(g) })
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		if !last {
			err = r.close()
		}
		return d, err
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			r.close()
		}
	}()
	cl := r.srv.DB().Cluster()

	// The watcher drains events and checks their sequence numbers.
	var events, gaps int64
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		seq := r.watch.StartSeq()
		for ev := range r.watch.Events() {
			events++
			if ev.Seq != seq+1 {
				gaps++
			}
			seq = ev.Seq
		}
	}()

	// One DELETE before the window rebuilds the index over the preloaded
	// table alone, so its write volume and peak space are exact counts.
	b0 := cl.Stats()
	if _, _, err := r.conns[0].Exec(fmt.Sprintf("DELETE FROM %s WHERE v1 = %d", edgeTable, g.Edges[0].V)); err != nil {
		return nil, fmt.Errorf("calibration delete: %w", err)
	}
	b1 := cl.Stats()
	if b1.IndexRebuilds != b0.IndexRebuilds+1 {
		o.fail("calibration delete made %d rebuilds, want 1", b1.IndexRebuilds-b0.IndexRebuilds)
	}

	// The traced run drains the statement trace every few milliseconds.
	layers := newLayerTotals()
	var drain traceDrain
	stopTrace := make(chan struct{})
	traceDone := make(chan struct{})
	if traced {
		drain.take(cl.Trace()) // set-up statements are not the window's
		go func() {
			defer close(traceDone)
			tick := time.NewTicker(tracePoll)
			defer tick.Stop()
			for {
				select {
				case <-stopTrace:
					layers.add(drain.take(cl.Trace()))
					return
				case <-tick.C:
					layers.add(drain.take(cl.Trace()))
				}
			}
		}()
	} else {
		close(traceDone)
	}

	debug.FreeOSMemory()
	st0, srv0, rt0 := cl.Stats(), r.srv.Stats(), readRuntime()
	tallies := make([]connTally, ingestConns)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for i := range tallies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ingest(r, i, g, seed, deadline, &tallies[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rt := readRuntime().sub(rt0)
	if traced {
		close(stopTrace)
	}
	<-traceDone
	st1, srv1 := cl.Stats(), r.srv.Stats()

	// Correctness: the index's labelling must be the partition Union/Find
	// computes over the table's final edge set.
	labels, err := r.srv.DB().ComponentLabels(streamPhys)
	if err != nil {
		return nil, fmt.Errorf("component labels: %w", err)
	}
	rows, err := cl.ReadAll(streamPhys)
	if err != nil {
		return nil, fmt.Errorf("read final table: %w", err)
	}
	final := graph.New(len(rows))
	for _, row := range rows {
		final.AddEdge(row[0].Int, row[1].Int)
	}
	var oracle graph.Labelling
	ufTimes, _ := repeat(func(bool) (time.Duration, error) {
		return timed(func() { oracle = unionfind.Components(final) }), nil
	})
	if err := verify.Equivalent(labels, oracle); err != nil {
		o.fail("final labelling: %v", err)
	}
	r.watch.Close()
	<-watched // the watcher has taken every event; close finds none left
	closed = true
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if gaps != 0 {
		o.fail("watcher saw %d sequence gaps", gaps)
	}
	if events == 0 {
		o.fail("watcher saw no events")
	}

	var all connTally
	for _, t := range tallies {
		all.inserts += t.inserts
		all.deletes += t.deletes
		all.shed += t.shed
		all.failed += t.failed
		all.insertLat = append(all.insertLat, t.insertLat...)
		all.queued = append(all.queued, t.queued...)
		all.deleteLat = append(all.deleteLat, t.deleteLat...)
		if t.problem != nil {
			o.problems = append(o.problems, t.problem.Error())
		}
	}
	o.attempted = all.inserts + all.deletes + all.shed + all.failed
	o.failed = all.shed + all.failed
	if all.inserts == 0 || all.deletes == 0 {
		o.fail("%d INSERTs and %d DELETEs completed; the window needs both", all.inserts, all.deletes)
	}

	insMs := durationsMs(all.insertLat)
	delMs := durationsMs(all.deleteLat)
	ackedEdges := float64(all.inserts * insertEdges)
	ufS := median(ufTimes)
	d := o.detail
	d.set("edges_per_s", ackedEdges/elapsed.Seconds(), "edges/s")
	d.set("vs_unionfind", median(delMs)/1000/ufS, "ratio")
	d.set("setup_s", median(setupTimes), "s")
	d.set("max_rss_mib", maxRSSMiB(), "MiB")
	d.set("error_rate", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	d.set("insert_p50_ms", median(insMs), "ms")
	if name, q, ok := tailPercentile(len(insMs)); ok {
		d.set("insert_"+name+"_ms", percentile(insMs, q), "ms")
	}
	d.set("inserts", float64(all.inserts), "count")
	d.set("rebuild_p50_ms", median(delMs), "ms")
	d.set("deletes", float64(all.deletes), "count")
	d.set("unionfind_s", ufS, "s")
	d.set("final_edges", float64(len(rows)), "count")
	d.set("bytes_written_mib", float64(b1.BytesWritten-b0.BytesWritten)/mib, "MiB")
	d.set("peak_space_mib", float64(b1.PeakBytes-b0.LiveBytes)/mib, "MiB")
	d.set("compidx.rebuilds", float64(st1.IndexRebuilds-st0.IndexRebuilds), "count")
	d.set("compidx.seq_gaps", float64(gaps), "count")
	d.set("engine.spill_files", float64(st1.SpillPartitions-st0.SpillPartitions), "count")
	if !traced {
		return o, nil
	}

	if drain.dropped > 0 {
		o.problems = append(o.problems, fmt.Sprintf("trace ring dropped %d statements", drain.dropped))
	}
	layers.fill(d, 1)
	fillStats(d, addStats(st1, st0, -1), 1)
	fillRuntime(d, rt, 1)
	queuedMs := durationsMs(all.queued)
	d.set("engine.peak_work_mib", float64(st1.PeakWorkBytes)/mib, "MiB")
	d.set("engine.bytes_written_mib", d["bytes_written_mib"].Value, "MiB")
	d.set("engine.peak_space_mib", d["peak_space_mib"].Value, "MiB")
	d.set("engine.insert_s", layers.insertTime.Seconds(), "s")
	d.set("engine.insert_rows", float64(layers.insertRows), "count")
	d.set("compidx.labels_touched_per_edge", ratio(float64(st1.IndexLabelsTouched-st0.IndexLabelsTouched), ackedEdges), "ratio")
	d.set("compidx.merges", float64(st1.IndexMerges-st0.IndexMerges), "count")
	d.set("compidx.watch_events", float64(events), "count")
	d.set("compidx.seq_gaps", float64(gaps), "count")
	d.set("compidx.rebuilds", float64(st1.IndexRebuilds-st0.IndexRebuilds), "count")
	d.set("compidx.rebuild_s", ratio(sum(delMs)/1000-layers.deleteTime.Seconds(), float64(all.deletes)), "s")
	d.set("unionfind.components_s", ufS, "s")
	d.set("server.queue_p50_ms", median(queuedMs), "ms")
	d.set("server.queue_p99_ms", percentile(queuedMs, 0.99), "ms")
	d.set("server.statements", float64(srv1.Statements-srv0.Statements), "count")
	d.set("server.shed", float64(srv1.Shed-srv0.Shed), "count")
	d.set("server.failed", float64(srv1.Failed-srv0.Failed), "count")
	d.set("client.outside_engine_ms", ratio(sum(insMs)-sum(queuedMs)-millis(layers.insertTime), float64(all.inserts)), "ms")
	d.set("traced.edges_per_s", ackedEdges/elapsed.Seconds(), "edges/s")
	return o, nil
}

// addStats returns a + k·b over the cumulative engine counters the traced
// runs report: k = 1 sums per-run counters, k = -1 takes a delta.
func addStats(a, b engine.Stats, k int64) engine.Stats {
	return engine.Stats{
		Queries:         a.Queries + k*b.Queries,
		ShuffleBytes:    a.ShuffleBytes + k*b.ShuffleBytes,
		SpilledBytes:    a.SpilledBytes + k*b.SpilledBytes,
		SpillPartitions: a.SpillPartitions + k*b.SpillPartitions,
		SpillPasses:     a.SpillPasses + k*b.SpillPasses,
		Parses:          a.Parses + k*b.Parses,
		PlanCacheHits:   a.PlanCacheHits + k*b.PlanCacheHits,
		PlanCacheMisses: a.PlanCacheMisses + k*b.PlanCacheMisses,
	}
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
