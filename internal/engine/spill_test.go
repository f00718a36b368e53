package engine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbcc/internal/xrand"
)

// Differential tests for memory-bounded execution: every spilling kernel
// must be bit-identical to its in-memory twin. Each test runs the same
// query on two clusters over identical data — one unbounded, one with a
// budget tiny enough to force the spilling paths — and asserts exact row
// equality plus actual spill activity on the budgeted side.

// spillBudget is tight enough that every per-segment kernel working set
// in these tests exceeds its share (budget/segments = 1 KiB).
const spillBudget = 4 << 10

// joinableRows generates rows whose key column is nearly uniform over a
// small range: enough duplicates to exercise hash chains without the
// quadratic blowup a hot-key-skewed self join would produce.
func joinableRows(rng *xrand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		k := NullDatum
		if rng.Uint64n(20) != 0 {
			k = I(int64(rng.Uint64n(512)))
		}
		rows[i] = Row{k, I(int64(i))}
	}
	return rows
}

// spillPair creates an unbounded and a tightly budgeted cluster over the
// same table.
func spillPair(t *testing.T, schema Schema, rows []Row) (mem, spill *Cluster) {
	t.Helper()
	mem = NewCluster(Options{Segments: 4})
	spill = NewCluster(Options{Segments: 4, MemoryBudget: spillBudget})
	t.Cleanup(func() { spill.Close() })
	mustCreate(t, mem, "t", schema, 0, rows)
	mustCreate(t, spill, "t", schema, 0, rows)
	return mem, spill
}

// sameRows asserts two result sets are identical, including order.
func sameRows(t *testing.T, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for r := range want {
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Fatalf("row %d: got %v, want %v", r, got[r], want[r])
			}
		}
	}
}

// runBoth executes the plan on both clusters and asserts identical
// results and spill activity on the budgeted cluster.
func runBoth(t *testing.T, mem, spill *Cluster, p Plan) {
	t.Helper()
	_, want, err := mem.Query(p)
	if err != nil {
		t.Fatalf("in-memory query: %v", err)
	}
	_, got, root, err := spill.QueryAnalyze(p)
	if err != nil {
		t.Fatalf("budgeted query: %v", err)
	}
	sameRows(t, got, want)
	if root.TotalSpilled() == 0 {
		t.Fatalf("budgeted query did not spill:\n%s", root.Format())
	}
}

func TestSpillJoinMatchesInMemory(t *testing.T) {
	rng := xrand.New(101)
	rows := joinableRows(rng, 2000)
	mem, spill := spillPair(t, Schema{"k", "x"}, rows)
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		p := JoinPlan{Left: Scan("t"), Right: Scan("t"), LeftKey: 0, RightKey: 0, Kind: kind}
		runBoth(t, mem, spill, p)
	}
	if b, _, _ := spill.SpillTotals(); b == 0 {
		t.Fatal("SpillTotals reports no spilled bytes")
	}
	if s := spill.Stats(); s.SpilledBytes == 0 || s.PeakWorkBytes == 0 {
		t.Fatalf("Stats missing spill activity: %+v", s)
	}
}

func TestSpillGroupByMatchesInMemory(t *testing.T) {
	rng := xrand.New(103)
	rows := make([]Row, 3000)
	for i := range rows {
		rows[i] = Row{I(int64(rng.Uint64n(700))), I(int64(rng.Uint64n(1 << 20)))}
	}
	mem, spill := spillPair(t, Schema{"k", "x"}, rows)
	p := GroupBy(Scan("t"), []int{0},
		Agg{Op: AggMin, Arg: Col(1), Name: "mn"},
		Agg{Op: AggMax, Arg: Col(1), Name: "mx"},
		Agg{Op: AggCount, Name: "n"})
	runBoth(t, mem, spill, p)
}

func TestSpillDistinctMatchesInMemory(t *testing.T) {
	rng := xrand.New(107)
	rows := make([]Row, 3000)
	for i := range rows {
		rows[i] = Row{I(int64(rng.Uint64n(40))), I(int64(rng.Uint64n(50)))}
	}
	mem, spill := spillPair(t, Schema{"a", "b"}, rows)
	runBoth(t, mem, spill, Distinct(Scan("t")))
}

// TestSpillSortMatchesInMemory drives the external merge sort with heavy
// key ties: the payload column records input order, so any stability
// violation in run formation or merge shows up as a row mismatch.
func TestSpillSortMatchesInMemory(t *testing.T) {
	rng := xrand.New(109)
	rows := make([]Row, 4000)
	for i := range rows {
		k := NullDatum
		if rng.Uint64n(15) != 0 {
			k = I(int64(rng.Uint64n(8)))
		}
		rows[i] = Row{k, I(int64(i))}
	}
	mem, spill := spillPair(t, Schema{"k", "pos"}, rows)
	for _, desc := range []bool{false, true} {
		p := Sort(Scan("t"), []SortKey{{Col: 0, Desc: desc}}, -1)
		runBoth(t, mem, spill, p)
	}
}

// TestSpillExplainAnalyze asserts the spill counters surface in the
// rendered operator profile.
func TestSpillExplainAnalyze(t *testing.T) {
	rng := xrand.New(113)
	_, spill := spillPair(t, Schema{"k", "x"}, joinableRows(rng, 2000))
	_, _, root, err := spill.QueryAnalyze(
		JoinPlan{Left: Scan("t"), Right: Scan("t"), LeftKey: 0, RightKey: 0, Kind: InnerJoin})
	if err != nil {
		t.Fatal(err)
	}
	out := root.Format()
	if !strings.Contains(out, "spilled=") || !strings.Contains(out, "parts=") {
		t.Fatalf("EXPLAIN ANALYZE output missing spill counters:\n%s", out)
	}
}

func TestResetStatsClearsSpillTotals(t *testing.T) {
	rng := xrand.New(127)
	_, spill := spillPair(t, Schema{"k", "x"}, joinableRows(rng, 2000))
	if _, _, err := spill.Query(Distinct(Scan("t"))); err != nil {
		t.Fatal(err)
	}
	if s := spill.Stats(); s.SpilledBytes == 0 {
		t.Fatal("setup query did not spill")
	}
	spill.ResetStats()
	s := spill.Stats()
	if s.SpilledBytes != 0 || s.SpillPartitions != 0 || s.SpillPasses != 0 || s.PeakWorkBytes != 0 {
		t.Fatalf("ResetStats left spill totals: %+v", s)
	}
	if b, p, ps := spill.SpillTotals(); b != 0 || p != 0 || ps != 0 {
		t.Fatalf("ResetStats left per-operator spill totals: %d %d %d", b, p, ps)
	}
}

// TestSpillCleanupAfterStatement asserts no partition files outlive their
// statement: after a spilling query completes, the spill root is empty.
func TestSpillCleanupAfterStatement(t *testing.T) {
	rng := xrand.New(131)
	_, spill := spillPair(t, Schema{"k", "x"}, joinableRows(rng, 2000))
	if _, _, err := spill.Query(Distinct(Scan("t"))); err != nil {
		t.Fatal(err)
	}
	assertSpillRootEmpty(t, spill)
}

// TestSpillCleanupAfterError injects a certain spill-write failure with
// no retry budget, so the statement errors mid-spill, and asserts its
// partition files are removed anyway.
func TestSpillCleanupAfterError(t *testing.T) {
	rng := xrand.New(137)
	inj := NewFaultInjector(FaultConfig{Seed: 7, SpillFailureRate: 1})
	c := NewCluster(Options{Segments: 4, MemoryBudget: spillBudget, FaultInjector: inj})
	t.Cleanup(func() { c.Close() })
	mustCreate(t, c, "t", Schema{"k", "x"}, 0, joinableRows(rng, 2000))
	if _, _, err := c.Query(Distinct(Scan("t"))); err == nil {
		t.Fatal("query with certain spill failures succeeded")
	}
	assertSpillRootEmpty(t, c)
}

// TestSpillFaultRetry composes spilling with the fault injector at a rate
// retries can absorb: results stay identical to the unbounded cluster and
// the injected spill faults are visible in the totals.
func TestSpillFaultRetry(t *testing.T) {
	rng := xrand.New(139)
	rows := joinableRows(rng, 2000)
	mem := NewCluster(Options{Segments: 4})
	mustCreate(t, mem, "t", Schema{"k", "x"}, 0, rows)
	// Under this pathological budget a task attempt performs on the order
	// of a thousand spill writes, so the per-write rate must stay low
	// enough that the per-attempt failure probability is well inside what
	// the retry policy absorbs.
	inj := NewFaultInjector(FaultConfig{Seed: 11, SpillFailureRate: 0.0002})
	spill := NewCluster(Options{
		Segments: 4, MemoryBudget: spillBudget,
		FaultInjector: inj, RetryBackoff: time.Microsecond,
		MaxTaskRetries: 12, RetryBudget: 400,
	})
	t.Cleanup(func() { spill.Close() })
	mustCreate(t, spill, "t", Schema{"k", "x"}, 0, rows)

	p := GroupBy(Scan("t"), []int{0}, Agg{Op: AggCount, Name: "n"})
	_, want, err := mem.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	// Fault decisions are deterministic per (seed, statement); a fixed
	// number of statements yields a fixed, nonzero injection count.
	for i := 0; i < 20; i++ {
		_, got, err := spill.Query(p)
		if err != nil {
			t.Fatalf("statement %d under spill faults: %v", i, err)
		}
		sameRows(t, got, want)
	}
	if inj.Injected() == 0 {
		t.Fatal("no spill faults were injected; lower the threshold or raise the rate")
	}
	if retries, faults, _ := spill.FaultTotals(); retries == 0 || faults == 0 {
		t.Fatalf("spill faults not visible in FaultTotals: retries=%d faults=%d", retries, faults)
	}
	assertSpillRootEmpty(t, spill)
}

// assertSpillRootEmpty scans the cluster's spill root for leftover
// statement directories.
func assertSpillRootEmpty(t *testing.T, c *Cluster) {
	t.Helper()
	root := c.SpillRoot()
	if root == "" {
		t.Fatal("cluster never created a spill root")
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading spill root: %v", err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("spill root not empty after statements finished: %v", names)
	}
}

// TestSpillCodecRoundTrip round-trips random chunks (with and without
// NULL bitmaps, including zero-row and zero-column shapes) through the
// frame codec.
func TestSpillCodecRoundTrip(t *testing.T) {
	rng := xrand.New(149)
	for trial := 0; trial < 60; trial++ {
		ncols := int(rng.Uint64n(5))
		nrows := int(rng.Uint64n(200))
		b := newChunkBuilder(ncols, 0)
		for r := 0; r < nrows; r++ {
			for c := 0; c < ncols; c++ {
				b.appendCol(c, int64(rng.Uint64()), rng.Uint64n(4) == 0)
			}
			b.n++
		}
		in := b.finish()
		buf := encodeChunkFrame(nil, in)
		out, n, err := decodeChunkFrame(buf)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if n != len(buf) {
			t.Fatalf("trial %d: decode consumed %d of %d bytes", trial, n, len(buf))
		}
		if out.length != in.length || len(out.cols) != len(in.cols) {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		for c := 0; c < ncols; c++ {
			for r := 0; r < nrows; r++ {
				gn, wn := out.nulls[c].get(r), in.nulls[c].get(r)
				if gn != wn || (!gn && out.cols[c][r] != in.cols[c][r]) {
					t.Fatalf("trial %d: col %d row %d differs", trial, c, r)
				}
			}
		}
	}
}

// TestSpillCodecRejectsCorrupt asserts truncated or corrupted frames fail
// cleanly with errSpillCorrupt-class errors rather than panicking.
func TestSpillCodecRejectsCorrupt(t *testing.T) {
	b := newChunkBuilder(2, 0)
	for r := 0; r < 100; r++ {
		b.appendCol(0, int64(r), false)
		b.appendCol(1, int64(r), r%3 == 0)
		b.n++
	}
	good := encodeChunkFrame(nil, b.finish())
	if _, _, err := decodeChunkFrame(good); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
	for cut := 0; cut < len(good); cut += 7 {
		if _, _, err := decodeChunkFrame(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	// Oversized column/row counts must be rejected before allocation.
	huge := bytes.Clone(good)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := decodeChunkFrame(huge); err == nil {
		t.Fatal("absurd ncols decoded successfully")
	}
	huge = bytes.Clone(good)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := decodeChunkFrame(huge); err == nil {
		t.Fatal("absurd nrows decoded successfully")
	}
	// Stray bits past nrows in the last bitmap word must be rejected.
	stray := bytes.Clone(good)
	// Column 1 header: 8 byte chunk header + col0 (1 flag + 100 values).
	col1 := 8 + 1 + 800
	if stray[col1] != 1 {
		t.Fatalf("expected col 1 to carry a bitmap, flag=%d", stray[col1])
	}
	// Last bitmap word covers rows 64..99: set bit 63 (row 127).
	stray[col1+1+8+7] |= 0x80
	if _, _, err := decodeChunkFrame(stray); err == nil {
		t.Fatal("stray bitmap bits decoded successfully")
	}
}

// TestSpillJoinHotKeyMatchesInMemory drives the block nested-loop
// fallback of the grace join: one hot key that no re-partitioning can
// split, with more build rows than one block holds, plus NULL probe keys
// that ride in the same partition. The hot key is chosen to live on the
// segment that holds the NULL keys and to hash to partition 0 at the two
// depths that run (the fan-outs are powers of two, so partition 0 of 32 is
// partition 0 of every fan-out), and every other key lives elsewhere — so
// segment 0's partition 0 holds only hot rows, cannot shrink, and falls
// back to block mode with the NULL probe rows in it. Inner joins probe the
// blocks; left outer joins also pad the NULL rows in the final pass.
func TestSpillJoinHotKeyMatchesInMemory(t *testing.T) {
	const segs = 4
	hot := int64(-1)
	for k := int64(0); hot < 0; k++ {
		if xrand.Mix64(uint64(k))%segs == 0 &&
			xrand.Mix64(uint64(k)^spillSalt(0))%32 == 0 &&
			xrand.Mix64(uint64(k)^spillSalt(1))%32 == 0 {
			hot = k
		}
	}
	rng := xrand.New(151)
	var rows []Row
	nHot, nNull := 0, 0
	for len(rows) < 400 {
		switch x := rng.Uint64n(10); {
		case x < 2:
			rows = append(rows, Row{I(hot), I(int64(len(rows)))})
			nHot++
		case x < 3:
			rows = append(rows, Row{NullDatum, I(int64(len(rows)))})
			nNull++
		default:
			k := int64(rng.Uint64n(1 << 20))
			if k == hot || xrand.Mix64(uint64(k))%segs == 0 {
				continue
			}
			rows = append(rows, Row{I(k), I(int64(len(rows)))})
		}
	}
	// One block holds share/(2*(rowBytes+52)) = 6 build rows; the hot key
	// must span several.
	if nHot < 40 || nNull < 10 {
		t.Fatalf("workload too small: %d hot rows, %d NULL keys", nHot, nNull)
	}
	mem, spill := spillPair(t, Schema{"k", "x"}, rows)
	for _, kind := range []JoinKind{InnerJoin, LeftOuterJoin} {
		p := JoinPlan{Left: Scan("t"), Right: Scan("t"), LeftKey: 0, RightKey: 0, Kind: kind}
		runBoth(t, mem, spill, p)
	}
}

// refPartition is the row-at-a-time partitioner the block scatter of
// partitionSet replaced, kept as the reference the scatter's files must
// match byte for byte: each row is routed on its own, appended one value
// at a time to its partition's builder, and a partition is flushed as one
// frame the moment it holds bufRows rows. With hidden set, each row also
// gets its position among all the frames' rows as a trailing column. It
// returns the rows and bytes written per partition file.
func refPartition(t *testing.T, e *execEnv, dir string, frames []*Chunk, fanout, bufRows int,
	hidden bool, route func(ch *Chunk, r int) int) (rows, bytes []int64) {
	t.Helper()
	ncols := len(frames[0].cols)
	if hidden {
		ncols++
	}
	files := make([]*os.File, fanout)
	builders := make([]*chunkBuilder, fanout)
	rows, bytes = make([]int64, fanout), make([]int64, fanout)
	var scratch []byte
	var ioSeq int64
	flush := func(p int) {
		if builders[p].n == 0 {
			return
		}
		n := builders[p].n
		nb, err := e.writeSpillFrame(0, files[p], &scratch, builders[p].finish(), &ioSeq)
		if err != nil {
			t.Fatal(err)
		}
		rows[p] += int64(n)
		bytes[p] += nb
		builders[p] = newChunkBuilder(ncols, 0)
	}
	for p := range files {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("x_p%d.part", p)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[p] = f
		builders[p] = newChunkBuilder(ncols, 0)
	}
	var idx int64
	for _, ch := range frames {
		for r := 0; r < ch.length; r, idx = r+1, idx+1 {
			p := route(ch, r)
			if p < 0 {
				continue
			}
			b := builders[p]
			for c := range ch.cols {
				b.appendCol(c, ch.cols[c][r], ch.nulls[c].get(r))
			}
			if hidden {
				b.appendCol(len(ch.cols), idx, false)
			}
			b.n++
			if b.n >= bufRows {
				flush(p)
			}
		}
	}
	for p := range builders {
		flush(p)
	}
	return rows, bytes
}

// scatterCase is one partitioning run compared against refPartition.
type scatterCase struct {
	frames   []*Chunk
	fanout   int
	bufRows  int
	repart   bool // re-partition a file of the frames, else pass 0 over their concatenation
	byRow    bool // partition by the hash of the first two columns, else by column 0
	keepNull bool // NULL keys go to partition 0, else they are dropped
}

// checkScatter partitions sc's rows with the production partitionSet and
// with refPartition and asserts identical per-partition row and byte
// counts and byte-identical files.
func checkScatter(t *testing.T, sc scatterCase) {
	t.Helper()
	ncols := len(sc.frames[0].cols)
	width := ncols
	if !sc.repart {
		width++
	}
	// The share that makes spillBufRows pick sc.bufRows (1 is the floor).
	share := int64(sc.bufRows) * 2 * int64(sc.fanout) * int64(width) * 8
	if sc.bufRows == 1 {
		share = 1
	}
	c := NewCluster(Options{Segments: 1, MemoryBudget: share})
	e := c.newExecEnv(context.Background())
	if got := spillBufRows(e.segShare(), sc.fanout, width); got != sc.bufRows {
		t.Fatalf("share %d gives %d buffer rows, want %d", share, got, sc.bufRows)
	}
	salt := spillSalt(3)
	part := keyPartitions(0, sc.fanout, salt, sc.keepNull)
	route := func(ch *Chunk, r int) int {
		if ch.nulls[0].get(r) {
			if sc.keepNull {
				return 0
			}
			return -1
		}
		return int(xrand.Mix64(uint64(ch.cols[0][r])^salt) % uint64(sc.fanout))
	}
	if sc.byRow {
		part = rowPartitions(2, sc.fanout, salt)
		route = func(ch *Chunk, r int) int {
			return int(xrand.Mix64(chunkRowHash(ch, 0, 2, r)^salt) % uint64(sc.fanout))
		}
	}

	gotDir, wantDir := t.TempDir(), t.TempDir()
	var ioSeq int64
	var ws []*spillPartWriter
	var err error
	if sc.repart {
		src := filepath.Join(gotDir, "src.part")
		f, err := os.Create(src)
		if err != nil {
			t.Fatal(err)
		}
		var scratch []byte
		for _, fr := range sc.frames {
			if _, err := e.writeSpillFrame(0, f, &scratch, fr, &ioSeq); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		ws, err = e.repartitionFile(0, gotDir, "x", src, ncols, sc.fanout, part, &ioSeq)
	} else {
		ws, err = e.partitionChunk(0, gotDir, "x", concatChunks(ncols, sc.frames), sc.fanout, part, &ioSeq)
	}
	if err != nil {
		t.Fatal(err)
	}
	if used := e.acct.used.Load(); used != 0 {
		t.Fatalf("partition set left %d bytes charged", used)
	}
	wantRows, wantBytes := refPartition(t, e, wantDir, sc.frames, sc.fanout, sc.bufRows, !sc.repart, route)
	for p, w := range ws {
		if w.rows != wantRows[p] || w.bytes != wantBytes[p] {
			t.Fatalf("partition %d: %d rows / %d bytes, reference %d / %d",
				p, w.rows, w.bytes, wantRows[p], wantBytes[p])
		}
		got, err := os.ReadFile(w.path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(wantDir, fmt.Sprintf("x_p%d.part", p)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("partition %d: file differs from the reference (%d vs %d bytes)", p, len(got), len(want))
		}
	}
}

// randomFrames builds frames of random sizes with three columns: a key
// over keys distinct values and two payloads. NULLs appear in the key
// (nullKey) and in payload column 2 (nullPayload) with probability 1/8.
func randomFrames(rng *xrand.Rand, n, keys int, nullKey, nullPayload bool) []*Chunk {
	var frames []*Chunk
	for n > 0 {
		size := min(n, 1+int(rng.Uint64n(300)))
		n -= size
		b := newChunkBuilder(3, 0)
		for r := 0; r < size; r++ {
			b.appendCol(0, int64(rng.Uint64n(uint64(keys))), nullKey && rng.Uint64n(8) == 0)
			b.appendCol(1, int64(rng.Uint64()), false)
			b.appendCol(2, int64(rng.Uint64()), nullPayload && rng.Uint64n(8) == 0)
			b.n++
		}
		frames = append(frames, b.finish())
	}
	return frames
}

// TestSpillScatterMatchesReference pins the partition files of the block
// scatter to the row-at-a-time reference: the same frames, at the same
// boundaries, byte for byte.
func TestSpillScatterMatchesReference(t *testing.T) {
	rng := xrand.New(157)
	cases := map[string]scatterCase{
		"nulls in key and payload": {frames: randomFrames(rng, 3000, 500, true, true),
			fanout: 8, bufRows: 64, keepNull: true},
		"dropped NULL build keys": {frames: randomFrames(rng, 3000, 500, true, true),
			fanout: 8, bufRows: 64},
		"one-row buffers": {frames: randomFrames(rng, 500, 50, true, true),
			fanout: 4, bufRows: 1, keepNull: true},
		"many frames per partition": {frames: randomFrames(rng, 5000, 1000, false, true),
			fanout: 4, bufRows: 16},
		"fan-out 2": {frames: randomFrames(rng, 2000, 100, true, false),
			fanout: 2, bufRows: 100, keepNull: true},
		"fan-out 32": {frames: randomFrames(rng, 4000, 4000, true, true),
			fanout: 32, bufRows: 8},
		"full buffers": {frames: randomFrames(rng, 3000, 3000, false, false),
			fanout: 4, bufRows: 1024},
		"group rows": {frames: randomFrames(rng, 3000, 40, true, true),
			fanout: 16, bufRows: 32, byRow: true},
	}
	for name, sc := range cases {
		t.Run(name, func(t *testing.T) {
			checkScatter(t, sc)
			sc.repart = true
			checkScatter(t, sc)
		})
	}
}

// FuzzSpillScatter compares the block scatter with the row-at-a-time
// reference on arbitrary inputs. The first three bytes pick the fan-out
// (a power of two, 2..32), the buffer rows (1..64), and the mode (bit 0:
// re-partition a file, bit 1: partition by row hash, bit 2: keep NULL
// keys); every further 3 bytes are one row (up to 512), 0xff meaning
// NULL.
func FuzzSpillScatter(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3})
	f.Add([]byte{4, 63, 7, 0xff, 1, 0xff, 2, 2, 2, 3, 0xff, 9})
	seed := []byte{2, 2, 4}
	for i := 0; i < 300; i++ {
		seed = append(seed, byte(i*7), byte(i), byte(255-i))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		sc := scatterCase{
			fanout:   2 << (data[0] % 5),
			bufRows:  1 + int(data[1]%64),
			repart:   data[2]&1 != 0,
			byRow:    data[2]&2 != 0,
			keepNull: data[2]&4 != 0,
		}
		data = data[3:]
		n := min(len(data)/3, 512)
		b := newChunkBuilder(3, 0)
		for r := 0; r < n; r++ {
			for c := 0; c < 3; c++ {
				v := data[3*r+c]
				b.appendCol(c, int64(int8(v)), v == 0xff)
			}
			b.n++
		}
		// Split into frames of 1..8 rows, as a re-partitioned file holds.
		all := b.finish()
		for lo := 0; lo < n; {
			hi := min(n, lo+1+int(data[lo%len(data)]%8))
			fb := newChunkBuilder(3, 0)
			fb.appendRows(all, lo, hi)
			sc.frames = append(sc.frames, fb.finish())
			lo = hi
		}
		checkScatter(t, sc)
	})
}
