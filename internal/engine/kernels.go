package engine

// Columnar execution kernels: the per-segment inner loops of the hot
// operators, operating directly on chunks and the int64-specialized hash
// tables. Each kernel is a pure function over immutable input chunks so
// it can run as a leaf task on the worker pool, be differential-tested
// against a row-at-a-time reference, and be benchmarked in isolation
// (see kernels_bench_test.go).

// radixPartitionChunk splits one source chunk into nparts per-destination
// chunks — the radix step of the partitioned shuffle. dests[r] names row
// r's destination part; a negative destination drops the row entirely
// (bloom-join pruning). Rows keep their source order within each
// destination, so concatenating the per-source buckets downstream
// reproduces the exact source-major row order of the historical counting
// shuffle (pinned by TestShuffleMatchesReference and the differential
// tests).
//
// Unlike the counting shuffle's row-at-a-time placement, values move
// column-at-a-time: per column, one pass over the rows scatters into the
// destination slices, which keeps a single source column and a handful of
// destination cursors hot in cache instead of striding across every column
// of every destination per row. All destination columns share one pooled
// flat backing array (returned for release via putI64 once the buckets
// have been consumed); the backing is stale pool memory, so every slot is
// written exactly once — NULL slots are explicitly zeroed so a bucket is
// bit-identical to a freshly allocated chunk. Null bitmaps are allocated
// fresh, never pooled.
func radixPartitionChunk(ch *Chunk, dests []int32, nparts int) ([]*Chunk, *[]int64) {
	ncols := len(ch.cols)
	n := ch.length
	counts := make([]int32, nparts)
	kept := 0
	for _, d := range dests[:n] {
		if d >= 0 {
			counts[d]++
			kept++
		}
	}
	fp := getI64(ncols * kept)
	flat := *fp
	parts := chunksFromFlat(ncols, counts, flat)

	// gslot[r] is row r's slot within the concatenated bucket set: buckets
	// are packed in destination order and rows keep source order within
	// each bucket, so the slot is the bucket's start plus a running cursor.
	// Under chunksFromFlat's column-major layout, column c of row r then
	// lives at flat[c*kept+gslot[r]] — one slice, one index, no per-row
	// part indirection in the scatter loops below.
	gp := getI32(n)
	gslot := (*gp)[:n]
	starts := make([]int32, nparts)
	cursors := make([]int32, nparts)
	at := int32(0)
	for d, cnt := range counts {
		starts[d] = at
		cursors[d] = at
		at += cnt
	}
	for r, d := range dests[:n] {
		if d >= 0 {
			gslot[r] = cursors[d]
			cursors[d]++
		}
	}

	for c := 0; c < ncols; c++ {
		src := ch.cols[c]
		dst := flat[c*kept : (c+1)*kept : (c+1)*kept]
		if ch.nulls[c] == nil {
			if kept == n {
				// Branch-free hot loop: nothing pruned, no NULLs — the
				// common shape of a contraction-round shuffle.
				for r, g := range gslot {
					dst[g] = src[r]
				}
				continue
			}
			for r, d := range dests[:n] {
				if d >= 0 {
					dst[gslot[r]] = src[r]
				}
			}
			continue
		}
		nb := ch.nulls[c]
		for r, d := range dests[:n] {
			if d < 0 {
				continue
			}
			g := gslot[r]
			if nb.get(r) {
				dst[g] = 0 // pooled backing is stale; NULL payloads must read zero
				parts[d].ensureNulls(c).set(int(g - starts[d]))
			} else {
				dst[g] = src[r]
			}
		}
	}
	*gp = gslot
	putI32(gp)
	return parts, fp
}

// joinChunks joins one segment's co-located chunks: a hash table is built
// over the right (build) side keyed on the raw int64 join key, then the
// left (probe) side streams through it.
func joinChunks(left, right *Chunk, leftKey, rightKey int, kind JoinKind) *Chunk {
	out := newChunkBuilder(len(left.cols)+len(right.cols), 0)
	probeJoinTable(out, left, leftKey, right, buildJoinTable(right, rightKey), kind)
	return out.finish()
}

// buildJoinTable indexes the build chunk on column key. NULL keys never
// match and are left out. Rows are inserted in reverse so each chain
// iterates in ascending build order — the exact match order the row
// engine produced.
func buildJoinTable(build *Chunk, key int) *joinTable {
	jt := newJoinTable(build.length)
	keys, nulls := build.cols[key], build.nulls[key]
	for i := build.length - 1; i >= 0; i-- {
		if !nulls.get(i) {
			jt.insert(keys[i], int32(i))
		}
	}
	return jt
}

// probeJoinTable streams the probe chunk through jt, the table over
// build, appending each probe row's matches (probe columns then build
// columns) to out in ascending build order. NULL keys never match; for a
// left outer join, an unmatched probe row is emitted padded with NULLs.
// The in-memory join and every spilling join variant share this loop.
func probeJoinTable(out *chunkBuilder, probe *Chunk, key int, build *Chunk, jt *joinTable, kind JoinKind) {
	rw := len(build.cols)
	keys, nulls := probe.cols[key], probe.nulls[key]
	for i := 0; i < probe.length; i++ {
		m := int32(-1)
		if !nulls.get(i) {
			m = jt.lookup(keys[i])
		}
		if m < 0 {
			if kind == LeftOuterJoin {
				out.appendOuterRow(probe, i, rw)
			}
			continue
		}
		for ; m >= 0; m = jt.next[m] {
			out.appendJoinRow(probe, i, build, int(m))
		}
	}
}

// groupChunk folds a partial-layout chunk (nk key columns followed by one
// column per aggregate) into one row per distinct key, preserving
// first-seen group order. Lookup is a single hash + open-addressing probe
// per input row; aggregate state mutates in place in the output builder.
func groupChunk(in *Chunk, nk int, aggs []Agg) *Chunk {
	b := newChunkBuilder(nk+len(aggs), 0)
	t := newGroupTable(64)
	foldChunkInto(b, t, in, nk, aggs)
	return b.finish()
}

// foldChunkInto folds one partial-layout chunk into an accumulating group
// builder/table pair. Factoring the loop out of groupChunk lets the spill
// path (foldPartition) fold a partition's chunks frame by frame into one
// shared accumulator without materializing their concatenation.
func foldChunkInto(b *chunkBuilder, t *groupTable, in *Chunk, nk int, aggs []Agg) {
	na := len(aggs)
	for r := 0; r < in.length; r++ {
		h := chunkRowHash(in, 0, nk, r)
		id, found := t.insertOrGet(h, func(g int32) bool {
			return builderKeysEqual(b, g, in, r, nk)
		})
		if !found {
			b.appendGroupRow(in, r, nk, na)
		}
		for i, a := range aggs {
			c := nk + i
			b.mergeAgg(c, id, a.Op, in.cols[c][r], in.nulls[c].get(r))
		}
	}
}

// builderKeysEqual compares the key columns of admitted group g against
// input row r, NULLs comparing equal (SQL GROUP BY key semantics).
func builderKeysEqual(b *chunkBuilder, g int32, in *Chunk, r, nk int) bool {
	for c := 0; c < nk; c++ {
		gn, rn := b.nulls[c].get(int(g)), in.nulls[c].get(r)
		if gn != rn {
			return false
		}
		if !gn && b.cols[c][g] != in.cols[c][r] {
			return false
		}
	}
	return true
}

// distinctChunk removes duplicate rows, keeping the first occurrence of
// each, via one whole-row hash + probe per input row. The survivors are
// gathered into an exact-capacity output chunk.
func distinctChunk(in *Chunk) *Chunk {
	ncols := len(in.cols)
	t := newGroupTable(64)
	kp := getI32(in.length)
	keep := *kp
	for r := 0; r < in.length; r++ {
		h := chunkRowHash(in, 0, ncols, r)
		_, found := t.insertOrGet(h, func(id int32) bool {
			return chunkRowsEqual(in, int(keep[id]), in, r, 0, ncols)
		})
		if !found {
			keep = append(keep, int32(r))
		}
	}
	out := gatherChunk(in, keep)
	*kp = keep
	putI32(kp)
	return out
}

// buildPartialChunk converts one segment's input chunk into group-by
// partial layout: the nk key columns (aliased, not copied) followed by one
// column per aggregate holding its per-row partial value — the evaluated
// argument for MIN/MAX/SUM, and a 0/1 non-NULL indicator (or constant 1
// for count(*)) for COUNT.
func buildPartialChunk(in *Chunk, keys []int, aggs []Agg) (*Chunk, error) {
	n := in.length
	vecs := make([]colVec, len(keys)+len(aggs))
	for i, k := range keys {
		vecs[i] = colVec{vals: in.cols[k], nulls: in.nulls[k]}
	}
	for i, a := range aggs {
		switch {
		case a.Op == AggCount && a.Arg == nil:
			ones := make([]int64, n)
			for j := range ones {
				ones[j] = 1
			}
			vecs[len(keys)+i] = colVec{vals: ones}
		case a.Op == AggCount:
			arg, err := evalVec(a.Arg, in, nil)
			if err != nil {
				return nil, err
			}
			counts := make([]int64, n)
			for j := 0; j < n; j++ {
				if !arg.null(j) {
					counts[j] = 1
				}
			}
			vecs[len(keys)+i] = colVec{vals: counts}
		default:
			arg, err := evalVec(a.Arg, in, nil)
			if err != nil {
				return nil, err
			}
			vecs[len(keys)+i] = arg
		}
	}
	return chunkFromVecs(vecs, n), nil
}
