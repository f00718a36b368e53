package engine

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
)

// Memory-bounded kernel variants: Grace-style partitioned hash join,
// partitioned group-by/DISTINCT fold, and external merge sort. Each
// segment task estimates the working set of the in-memory kernel first
// and runs it unchanged when it fits the task's share of the statement
// budget; otherwise the spilling variant partitions its input into files
// (see spill.go) whose partitions are processed one at a time, recursing
// with a fresh hash salt on partitions that still exceed the share.
//
// Every spilling variant is bit-identical to its in-memory kernel: rows
// carry a hidden original-row-index column through the partition files,
// and the partition outputs are placed into the final chunk by it, in
// O(n) —
//
//   - grace join tags both sides and emits every output row with its
//     hidden probe index. A probe row's output rows all come from the one
//     partition its key hashes to, and they are emitted in ascending
//     build order: partition files keep input order, hash chains iterate
//     in ascending build order, block nested-loop blocks are read in file
//     order, and a pad row is emitted only when there is no match. So a
//     stable counting placement on the probe index alone reproduces the
//     in-memory order exactly: probe order, ascending build row within
//     one probe row;
//   - the fold adds a MIN aggregate over the hidden row index, giving
//     each group its first-occurrence position. Those positions are
//     distinct values in [0, n), so a group's output row is its
//     position's rank among them — first-seen order, as groupChunk and
//     distinctChunk produce;
//   - external sort splits the chunk into consecutive-range runs (ties
//     within a run break by original position, the earlier run wins
//     across runs), so the merge is exactly the stable in-memory sort.

// joinSegment joins one segment's co-located chunks under the memory
// budget: in-memory when the build side and its hash table fit the
// segment share, Grace-partitioned otherwise.
func (e *execEnv) joinSegment(seg int, left, right *Chunk, lk, rk int, kind JoinKind) (*Chunk, error) {
	est := chunkFootprint(right) + joinTableBytes(right.length)
	if !e.shouldSpill(est) {
		w := joinTableBytes(right.length)
		e.acct.charge(w)
		defer e.acct.release(w)
		return joinChunks(left, right, lk, rk, kind), nil
	}
	dir, err := e.ensureSpillDir()
	if err != nil {
		return nil, err
	}
	lw, rw := len(left.cols), len(right.cols)
	wideRow := int64(max(lw, rw)+1) * 8
	fan := spillFanout(est, e.segShare(), wideRow)
	name := fmt.Sprintf("op%d_seg%d_J", e.opSeq.Load(), seg)
	var ioSeq int64

	// Pass 0: partition both sides by the join key, tagging every row with
	// its original index.
	salt := spillSalt(0)
	lparts, err := e.partitionChunk(seg, dir, name+"_L", left, fan, keyPartitions(lk, fan, salt, true), &ioSeq)
	if err != nil {
		return nil, err
	}
	rparts, err := e.partitionChunk(seg, dir, name+"_R", right, fan, keyPartitions(rk, fan, salt, false), &ioSeq)
	if err != nil {
		return nil, err
	}

	var outs []*Chunk
	for p := 0; p < fan; p++ {
		child := fmt.Sprintf("%s_p%d", name, p)
		if err := e.graceJoinPart(seg, dir, child, &outs, lparts[p], rparts[p],
			lw, rw, lk, rk, kind, int64(right.length), 1, &ioSeq); err != nil {
			return nil, err
		}
	}
	return e.placeJoinOutputs(outs, left.length, lw, rw), nil
}

// placeJoinOutputs assembles the grace join's partition outputs — layout
// [probe columns, hidden probe index, build columns] — into the final
// chunk in the in-memory kernel's order, by a stable counting placement on
// the probe index (see the file comment for why that suffices).
func (e *execEnv) placeJoinOutputs(outs []*Chunk, probeRows, lw, rw int) *Chunk {
	win := e.placeWindow(probeRows, 4)
	next := make([]int32, win+1)
	e.acct.charge(int64(len(next)) * 4)
	defer e.acct.release(int64(len(next)) * 4)
	placed := 0
	for lo := 0; lo < probeRows; lo += win {
		a, b := int64(lo), int64(min(lo+win, probeRows))
		clear(next)
		for _, o := range outs {
			for _, p := range o.cols[lw][:o.length] {
				if p >= a && p < b {
					next[p-a+1]++
				}
			}
		}
		// next[i] becomes the first output row of probe row lo+i.
		next[0] = int32(placed)
		for i := 1; i <= int(b-a); i++ {
			next[i] += next[i-1]
		}
		placed = int(next[b-a])
		for _, o := range outs {
			hc := o.cols[lw][:o.length]
			for r, p := range hc {
				if p >= a && p < b {
					hc[r] = -1 - int64(next[p-a])
					next[p-a]++
				}
			}
		}
	}
	srcCols := make([]int, 0, lw+rw)
	for c := 0; c < lw+1+rw; c++ {
		if c != lw {
			srcCols = append(srcCols, c)
		}
	}
	return placeOutputs(outs, placed, lw, srcCols)
}

// placeWindow sizes the index window one placement pass covers: as many
// indices as the share holds at bytesPer scratch bytes each. A pass is
// linear in the output rows, and the window spans the whole domain — one
// pass — unless the budget is tiny relative to the input.
func (e *execEnv) placeWindow(domain int, bytesPer int64) int {
	return int(max(1, min(int64(domain), e.segShare()/bytesPer)))
}

// placeOutputs moves the rows of the partition outputs into a new chunk
// of total rows: output row r goes to row -1-o.cols[hc][r] (the hidden
// column, overwritten by the placement pass), column c of the result
// taking output column srcCols[c]. The outputs are placed straight into
// the result, never concatenated first, and each is dropped once placed so
// the collector can reclaim it while the rest are placed.
func placeOutputs(outs []*Chunk, total, hc int, srcCols []int) *Chunk {
	res := newChunk(len(srcCols), total)
	for i, o := range outs {
		dst := o.cols[hc][:o.length]
		for r, v := range dst {
			dst[r] = -1 - v
		}
		for c, sc := range srcCols {
			placeCol(res, c, o, sc, dst)
		}
		outs[i] = nil
	}
	return res
}

// placeCol copies column sc of src into column dc of dst, row r going to
// row dstRows[r]. NULL rows get a NULL bit and a zero payload, as
// gatherCol produces.
func placeCol(dst *Chunk, dc int, src *Chunk, sc int, dstRows []int64) {
	vals, out := src.cols[sc], dst.cols[dc]
	nb := src.nulls[sc]
	if nb == nil {
		for r, d := range dstRows {
			out[d] = vals[r]
		}
		return
	}
	for r, d := range dstRows {
		if nb.get(r) {
			dst.ensureNulls(dc).set(int(d))
		} else {
			out[d] = vals[r]
		}
	}
}

// graceJoinPart processes one partition pair: re-partitioned with a fresh
// salt while the build side still exceeds the share (and is still
// shrinking — identical keys cannot be split further), joined in memory
// otherwise. Each joined partition appends its output chunk to outs.
func (e *execEnv) graceJoinPart(seg int, dir, name string, outs *[]*Chunk,
	lpart, rpart *spillPartWriter, lw, rw, lk, rk int, kind JoinKind,
	parentBuildRows int64, depth int, ioSeq *int64) error {
	buildRows := rpart.rows
	est := buildRows*int64(rw+1)*8 + joinTableBytes(int(buildRows))
	if e.shouldSpill(est) && depth < maxSpillDepth && buildRows < parentBuildRows {
		fan := spillFanout(est, e.segShare(), int64(max(lw, rw)+1)*8)
		salt := spillSalt(depth)
		lsub, err := e.repartitionFile(seg, dir, name+"_L", lpart.path, lw+1, fan, keyPartitions(lk, fan, salt, true), ioSeq)
		if err != nil {
			return err
		}
		rsub, err := e.repartitionFile(seg, dir, name+"_R", rpart.path, rw+1, fan, keyPartitions(rk, fan, salt, false), ioSeq)
		if err != nil {
			return err
		}
		for p := 0; p < fan; p++ {
			child := fmt.Sprintf("%s_d%d_p%d", name, depth, p)
			if err := e.graceJoinPart(seg, dir, child, outs, lsub[p], rsub[p],
				lw, rw, lk, rk, kind, buildRows, depth+1, ioSeq); err != nil {
				return err
			}
		}
		return nil
	}

	if e.shouldSpill(est) {
		// The partition still exceeds the share but cannot shrink (one
		// extremely hot key, or the depth cap): no amount of
		// re-partitioning helps.
		return e.blockJoinPart(outs, lpart, rpart, lw, rw, lk, rk, kind)
	}
	build, err := readPartition(rpart.path, rw+1)
	if err != nil {
		return err
	}
	charge := chunkFootprint(build) + joinTableBytes(build.length)
	e.acct.charge(charge)
	defer e.acct.release(charge)
	jt := buildJoinTable(build, rk)
	right := stripCols(build, rw)
	out := newChunkBuilder(lw+1+rw, 0)
	sr, err := openSpillReader(lpart.path)
	if err != nil {
		return err
	}
	defer sr.close()
	for {
		pf, err := sr.next()
		if err != nil {
			return err
		}
		if pf == nil {
			break
		}
		probeJoinTable(out, pf, lk, right, jt, kind)
	}
	*outs = append(*outs, out.finish())
	return nil
}

// blockJoinPart joins one unsplittable partition pair within the share as
// a block nested-loop hash join: the build file streams through in
// fixed-size blocks, each block's hash table probes the whole probe file
// as an inner join, and (for outer joins) a bitmap over probe ordinals
// collects the matched rows so pad rows are emitted exactly once in a
// final pass. Blocks are read in file order, so each probe row's matches
// still come out in ascending build order.
func (e *execEnv) blockJoinPart(outs *[]*Chunk, lpart, rpart *spillPartWriter,
	lw, rw, lk, rk int, kind JoinKind) error {
	share := e.segShare()
	rowB := int64(rw+1) * 8
	// A build row costs its chunk bytes plus at most ~52 hash-table bytes
	// (nextPow2(2n) 12-byte slots + 4-byte chain links); size blocks so
	// chunk + table fit half the share.
	blockRows := int(share / (2 * (rowB + 52)))
	if blockRows < 1 {
		blockRows = 1
	}
	charge := int64(blockRows)*rowB + joinTableBytes(blockRows)
	var matched []uint64
	if kind == LeftOuterJoin {
		matched = make([]uint64, (lpart.rows+63)/64)
		charge += int64(len(matched)) * 8
	}
	e.acct.charge(charge)
	defer e.acct.release(charge)

	out := newChunkBuilder(lw+1+rw, 0)
	probeAll := func(block *Chunk) error {
		jt := buildJoinTable(block, rk)
		right := stripCols(block, rw)
		sr, err := openSpillReader(lpart.path)
		if err != nil {
			return err
		}
		defer sr.close()
		var ord int64
		for {
			pf, err := sr.next()
			if err != nil {
				return err
			}
			if pf == nil {
				return nil
			}
			from := out.n
			probeJoinTable(out, pf, lk, right, jt, InnerJoin)
			if matched != nil {
				// Both the frame's probe indices and those of the rows just
				// emitted ascend, so one merge walk finds each matched row.
				pidx, r := pf.cols[lw], 0
				for _, v := range out.cols[lw][from:out.n] {
					for pidx[r] != v {
						r++
					}
					o := ord + int64(r)
					matched[o/64] |= 1 << (uint(o) % 64)
				}
			}
			ord += int64(pf.length)
		}
	}

	bb := newChunkBuilder(rw+1, blockRows)
	br, err := openSpillReader(rpart.path)
	if err != nil {
		return err
	}
	defer br.close()
	for {
		bf, err := br.next()
		if err != nil {
			return err
		}
		if bf == nil {
			break
		}
		for lo := 0; lo < bf.length; {
			hi := min(bf.length, lo+blockRows-bb.n)
			bb.appendRows(bf, lo, hi)
			lo = hi
			if bb.n == blockRows {
				if err := probeAll(bb.finish()); err != nil {
					return err
				}
				bb = newChunkBuilder(rw+1, blockRows)
			}
		}
	}
	if bb.n > 0 {
		if err := probeAll(bb.finish()); err != nil {
			return err
		}
	}

	if kind == LeftOuterJoin {
		// Pad pass: probe rows no block matched (NULL keys included).
		sr, err := openSpillReader(lpart.path)
		if err != nil {
			return err
		}
		defer sr.close()
		var ord int64
		for {
			pf, err := sr.next()
			if err != nil {
				return err
			}
			if pf == nil {
				break
			}
			for r := 0; r < pf.length; r++ {
				if o := ord + int64(r); matched[o/64]&(1<<(uint(o)%64)) == 0 {
					out.appendOuterRow(pf, r, rw)
				}
			}
			ord += int64(pf.length)
		}
	}
	*outs = append(*outs, out.finish())
	return nil
}

// foldSegment folds one segment's partial-layout chunk (group-by) or
// whole rows (DISTINCT, nk = all columns, no aggregates) under the memory
// budget: the in-memory kernel when input plus hash table fit the share,
// the partitioned fold otherwise.
func (e *execEnv) foldSegment(seg int, in *Chunk, nk int, aggs []Agg, distinct bool) (*Chunk, error) {
	est := chunkFootprint(in) + groupTableBytes(in.length)
	if !e.shouldSpill(est) {
		w := groupTableBytes(in.length)
		e.acct.charge(w)
		defer e.acct.release(w)
		if distinct {
			return distinctChunk(in), nil
		}
		return groupChunk(in, nk, aggs), nil
	}
	dir, err := e.ensureSpillDir()
	if err != nil {
		return nil, err
	}
	ncols := len(in.cols)
	fan := spillFanout(est, e.segShare(), int64(ncols+1)*8)
	name := fmt.Sprintf("op%d_seg%d_G", e.opSeq.Load(), seg)
	var ioSeq int64

	// Pass 0: partition by key hash, tagging rows with their original
	// index; all rows of one group land in one partition.
	parts, err := e.partitionChunk(seg, dir, name, in, fan, rowPartitions(nk, fan, spillSalt(0)), &ioSeq)
	if err != nil {
		return nil, err
	}

	// Per-partition streaming fold, with an extra MIN over the hidden
	// index recording each group's first occurrence.
	foldAggs := make([]Agg, 0, len(aggs)+1)
	foldAggs = append(foldAggs, aggs...)
	foldAggs = append(foldAggs, Agg{Op: AggMin})
	var outs []*Chunk
	for p := 0; p < fan; p++ {
		child := fmt.Sprintf("%s_p%d", name, p)
		if err := e.foldPartition(seg, dir, child, parts[p], nk, foldAggs,
			int64(in.length), 1, &ioSeq, &outs); err != nil {
			return nil, err
		}
	}
	return e.placeFoldOutputs(outs, in.length, ncols), nil
}

// placeFoldOutputs assembles the fold's partition outputs — ncols columns
// plus the hidden first-occurrence index — into the final chunk in
// first-seen order. The first occurrences are distinct values in
// [0, inRows), so a group's row is the rank of its first occurrence in a
// bitmap of them.
func (e *execEnv) placeFoldOutputs(outs []*Chunk, inRows, ncols int) *Chunk {
	words := (inRows + 63) / 64
	win := e.placeWindow(words, 8+4)
	seen := make([]uint64, win)
	rank := make([]int32, win) // set bits in the window's earlier words
	e.acct.charge(int64(win) * (8 + 4))
	defer e.acct.release(int64(win) * (8 + 4))
	placed := 0
	for lo := 0; lo < words; lo += win {
		a, b := int64(lo)*64, int64(min(lo+win, words))*64
		clear(seen)
		for _, o := range outs {
			for _, h := range o.cols[ncols][:o.length] {
				if h >= a && h < b {
					seen[(h-a)>>6] |= 1 << (uint64(h) & 63)
				}
			}
		}
		for w := range seen {
			rank[w] = int32(placed)
			placed += bits.OnesCount64(seen[w])
		}
		for _, o := range outs {
			hc := o.cols[ncols][:o.length]
			for r, h := range hc {
				if h >= a && h < b {
					w, below := (h-a)>>6, uint64(1)<<(uint64(h)&63)-1
					hc[r] = -1 - int64(rank[w]) - int64(bits.OnesCount64(seen[w]&below))
				}
			}
		}
	}
	srcCols := make([]int, ncols)
	for c := range srcCols {
		srcCols[c] = c
	}
	return placeOutputs(outs, placed, ncols, srcCols)
}

// foldPartition folds one partition file into group rows, recursing with
// a fresh salt while the partition exceeds the share and still shrinks.
// Folded chunks (keys, aggregates, hidden first-occurrence index) are
// appended to outs.
func (e *execEnv) foldPartition(seg int, dir, name string, part *spillPartWriter,
	nk int, foldAggs []Agg, parentRows int64, depth int, ioSeq *int64, outs *[]*Chunk) error {
	fcols := nk + len(foldAggs) // file layout: keys, agg partials, hidden index
	est := part.rows*int64(fcols)*8 + groupTableBytes(int(part.rows))
	if e.shouldSpill(est) && depth < maxSpillDepth && part.rows < parentRows {
		fan := spillFanout(est, e.segShare(), int64(fcols)*8)
		sub, err := e.repartitionFile(seg, dir, name, part.path, fcols, fan, rowPartitions(nk, fan, spillSalt(depth)), ioSeq)
		if err != nil {
			return err
		}
		for p := 0; p < fan; p++ {
			child := fmt.Sprintf("%s_d%d_p%d", name, depth, p)
			if err := e.foldPartition(seg, dir, child, sub[p], nk, foldAggs,
				part.rows, depth+1, ioSeq, outs); err != nil {
				return err
			}
		}
		return nil
	}

	// Base fold: frames stream through the accumulator one at a time, so
	// the working set is the group rows, not the input rows — a partition
	// that could not shrink (one hot key) folds into few groups and stays
	// within the share even though its row count does not. The charge
	// tracks the accumulator as it grows.
	b := newChunkBuilder(fcols, 0)
	t := newGroupTable(64)
	var charged int64
	defer func() { e.acct.release(charged) }()
	sr, err := openSpillReader(part.path)
	if err != nil {
		return err
	}
	defer sr.close()
	for {
		fr, err := sr.next()
		if err != nil {
			return err
		}
		if fr == nil {
			break
		}
		foldChunkInto(b, t, fr, nk, foldAggs)
		if c := int64(b.n)*int64(fcols)*8 + groupTableBytes(b.n); c > charged {
			e.acct.charge(c - charged)
			charged = c
		}
	}
	*outs = append(*outs, b.finish())
	return nil
}

// stripCols returns a view of ch keeping only the first k columns (the
// hidden spill bookkeeping columns sit at the end).
func stripCols(ch *Chunk, k int) *Chunk {
	return &Chunk{length: ch.length, cols: ch.cols[:k], nulls: ch.nulls[:k]}
}

// sortSegment sorts one segment's chunk under the memory budget. It
// returns the chunk the coordinator merge should read and the sorted
// index vector into it: the input chunk plus a sorted index in memory, or
// a materialised externally-sorted chunk with the identity index when the
// working set exceeds the share.
func (e *execEnv) sortSegment(seg int, ch *Chunk, keys []SortKey) (*Chunk, []int32, error) {
	n := ch.length
	idxBytes := int64(4 * n)
	if !e.shouldSpill(chunkFootprint(ch) + idxBytes) {
		e.acct.charge(idxBytes)
		defer e.acct.release(idxBytes)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(i, j int) bool {
			a, b := int(idx[i]), int(idx[j])
			if cmp := compareChunkRows(keys, ch, a, ch, b); cmp != 0 {
				return cmp < 0
			}
			return a < b
		})
		return ch, idx, nil
	}

	dir, err := e.ensureSpillDir()
	if err != nil {
		return nil, nil, err
	}
	ncols := len(ch.cols)
	share := e.segShare()
	rowB := int64(ncols) * 8
	if rowB <= 0 {
		rowB = 8
	}
	runRows := int(share / (2 * rowB))
	if runRows < 64 {
		runRows = 64
	}
	// The merge holds one buffered frame (one row at the floor) per run, so
	// cap the run count at what half the share can buffer and grow the runs
	// instead — the external-sort analogue of the fan-out cap.
	maxRuns := int(share / (2 * rowB))
	if maxRuns < 2 {
		maxRuns = 2
	}
	if minRun := (n + maxRuns - 1) / maxRuns; runRows < minRun {
		runRows = minRun
	}
	if runRows > n {
		runRows = n
	}
	nRuns := (n + runRows - 1) / runRows
	frameRows := int(share / (2 * int64(nRuns) * rowB))
	if frameRows < 1 {
		frameRows = 1
	}
	if frameRows > 512 {
		frameRows = 512
	}
	name := fmt.Sprintf("op%d_seg%d_S", e.opSeq.Load(), seg)
	var ioSeq int64

	// Run formation: consecutive ranges sorted with the original position
	// as tie-break, streamed out in frames. Consecutive ranges keep global
	// original-position order across runs, which makes the lowest-run
	// tie-break below reproduce the stable in-memory sort.
	bufCharge := int64(frameRows)*rowB + int64(runRows)*4
	e.acct.charge(bufCharge)
	var scratch []byte
	var runBytes int64
	paths := make([]string, nRuns)
	for run := 0; run < nRuns; run++ {
		lo := run * runRows
		hi := lo + runRows
		if hi > n {
			hi = n
		}
		idx := make([]int32, hi-lo)
		for i := range idx {
			idx[i] = int32(lo + i)
		}
		sort.Slice(idx, func(i, j int) bool {
			a, b := int(idx[i]), int(idx[j])
			if cmp := compareChunkRows(keys, ch, a, ch, b); cmp != 0 {
				return cmp < 0
			}
			return a < b
		})
		paths[run] = filepath.Join(dir, fmt.Sprintf("%s_r%d.run", name, run))
		f, err := os.Create(paths[run])
		if err != nil {
			e.acct.release(bufCharge)
			return nil, nil, fmt.Errorf("engine: creating sort run: %w", err)
		}
		for off := 0; off < len(idx); off += frameRows {
			end := off + frameRows
			if end > len(idx) {
				end = len(idx)
			}
			fr := gatherChunk(ch, idx[off:end])
			nb, err := e.writeSpillFrame(seg, f, &scratch, fr, &ioSeq)
			if err != nil {
				f.Close()
				e.acct.release(bufCharge)
				return nil, nil, err
			}
			runBytes += nb
		}
		if err := f.Close(); err != nil {
			e.acct.release(bufCharge)
			return nil, nil, fmt.Errorf("engine: closing sort run: %w", err)
		}
	}
	e.acct.release(bufCharge)
	e.noteSpill(runBytes, int64(nRuns), 1)

	// K-way merge of the runs, one buffered frame per run.
	mergeCharge := int64(nRuns) * int64(frameRows) * rowB
	e.acct.charge(mergeCharge)
	defer e.acct.release(mergeCharge)
	readers := make([]*spillReader, nRuns)
	cur := make([]*Chunk, nRuns)
	pos := make([]int, nRuns)
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.close()
			}
		}
	}()
	for i := range readers {
		sr, err := openSpillReader(paths[i])
		if err != nil {
			return nil, nil, err
		}
		readers[i] = sr
		if cur[i], err = sr.next(); err != nil {
			return nil, nil, err
		}
	}
	out := newChunk(ncols, n)
	for k := 0; k < n; k++ {
		best := -1
		for i := 0; i < nRuns; i++ {
			if cur[i] == nil {
				continue
			}
			if best < 0 || compareChunkRows(keys, cur[i], pos[i], cur[best], pos[best]) < 0 {
				best = i
			}
		}
		bc, br := cur[best], pos[best]
		for col := 0; col < ncols; col++ {
			if bc.nulls[col].get(br) {
				out.ensureNulls(col).set(k)
			} else {
				out.cols[col][k] = bc.cols[col][br]
			}
		}
		pos[best]++
		if pos[best] >= bc.length {
			nxt, err := readers[best].next()
			if err != nil {
				return nil, nil, err
			}
			cur[best], pos[best] = nxt, 0
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return out, idx, nil
}
