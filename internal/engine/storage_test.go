package engine

import (
	"runtime"
	"testing"
)

// TestInsertRowsRoundRobinSingleRows pins the placement of a NoDistKey
// table fed one row per statement: the round-robin cursor continues from
// the table's row count, so after any number of inserts the per-segment
// row counts differ by at most one.
func TestInsertRowsRoundRobinSingleRows(t *testing.T) {
	const segs = 8
	for _, n := range []int{64, 67} {
		c := NewCluster(Options{Segments: segs})
		if _, err := c.CreateTable("t", Schema{"v"}, NoDistKey); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := c.InsertRows("t", []Row{{I(int64(i))}}); err != nil {
				t.Fatal(err)
			}
		}
		tab, _ := c.Table("t")
		for seg, part := range segmentRows(tab) {
			if want := n / segs; len(part) != want && len(part) != want+1 {
				t.Errorf("n=%d: segment %d holds %d rows, want %d or %d", n, seg, len(part), want, want+1)
			}
		}
	}
}

// TestCreateTableAsScanDoesNotCopy asserts that a CREATE TABLE AS SELECT *
// keeping the source's distribution key shares the stored chunks instead
// of copying them: the bytes it allocates must not grow with the source
// table's row count.
func TestCreateTableAsScanDoesNotCopy(t *testing.T) {
	allocated := func(rows int) uint64 {
		c := NewCluster(Options{Segments: 4})
		in := make([]Row, rows)
		for i := range in {
			in[i] = Row{I(int64(i)), I(int64(i) * 3)}
		}
		mustCreate(t, c, "t", Schema{"v", "w"}, 0, in)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.CreateTableAs("t2", Scan("t"), 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got, _ := c.Table("t2"); got.Rows() != int64(rows) {
			t.Fatalf("t2 has %d rows, want %d", got.Rows(), rows)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(10_000), allocated(1_000_000)
	// 1M two-column rows are 16 MB of column data; a single copy of them
	// would dwarf the slack allowed here for per-statement bookkeeping.
	if large > small+64<<10 {
		t.Fatalf("CREATE TABLE AS over a scan allocated %d bytes at 1M rows vs %d at 10k: the scan or the publish copies rows", large, small)
	}
}

// TestStoredChunksSurviveShuffleReuse materialises a table through a
// redistributing CREATE TABLE AS, whose shuffle scatters rows into pooled
// bucket buffers, then runs enough further shuffles to recycle those
// buffers. The stored table must still read back exactly as it did right
// after creation: no stored chunk may alias pooled scratch memory.
func TestStoredChunksSurviveShuffleReuse(t *testing.T) {
	c := NewCluster(Options{Segments: 4})
	in := make([]Row, 5000)
	for i := range in {
		in[i] = Row{I(int64(i)), I(int64(i*7919) % 1000)}
		if i%11 == 0 {
			in[i][1] = NullDatum
		}
	}
	mustCreate(t, c, "t", Schema{"v", "w"}, 0, in)
	if _, err := c.CreateTableAs("t2", Scan("t"), 1); err != nil {
		t.Fatal(err)
	}
	want, err := c.ReadAll("t2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, _, err := c.Query(Distinct(Scan("t"))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Query(GroupBy(Scan("t2"), []int{0}, Agg{Op: AggCount, Arg: Col(1), Name: "n"})); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.ReadAll("t2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("t2 has %d rows after shuffles, want %d", len(got), len(want))
	}
	for i := range want {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("row %d changed after shuffles: got %v want %v", i, got[i], want[i])
			}
		}
	}
}
