package engine

// This file is the columnar chunk layer of the engine. A Chunk stores one
// segment's share of a relation in struct-of-arrays layout: each column is
// a flat []int64 plus an optional null bitmap, instead of one []Datum
// allocation per row. It is the one data layout of the engine: tables
// store one chunk per segment, scans hand those chunks to the operators,
// the hot operators (join, group-by, distinct, shuffle, sort) run as
// kernels directly over chunks, CreateTableAs stores the chunks its plan
// produced, spill frames encode chunks, and DeleteRows evaluates its
// predicate over the stored chunks. Rows exist only at the public API
// edges — InsertRows input, ReadAll and Query results, ValuesPlan — where
// the conversions below translate.

// nullBitmap marks the NULL rows of one chunk column, one bit per row. A
// nil bitmap means the column contains no NULLs, so the common all-valid
// case costs nothing to store or test.
type nullBitmap []uint64

// newNullBitmap returns an all-valid bitmap sized for n rows.
func newNullBitmap(n int) nullBitmap { return make(nullBitmap, (n+63)/64) }

// get reports whether row i is NULL. Safe on a nil bitmap and on bitmaps
// that were grown lazily and do not cover row i yet (builder columns only
// extend their bitmap up to the last NULL actually seen).
func (b nullBitmap) get(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b nullBitmap) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b nullBitmap) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Chunk is one segment's rows in columnar struct-of-arrays layout: the
// value of column c in row r is cols[c][r], and nulls[c] (if non-nil)
// marks the rows where that column is SQL NULL. Chunks are immutable once
// an operator has produced them or a table has stored them, so they may
// be shared between tables, concurrent readers and operators without
// copying.
type Chunk struct {
	length int
	cols   [][]int64
	nulls  []nullBitmap
}

// newChunk allocates a chunk of ncols columns and exactly n rows, all
// values zero and non-NULL. Kernels that know their output cardinality
// (shuffle placement, gathers, concatenations) fill it in place.
func newChunk(ncols, n int) *Chunk {
	ch := &Chunk{
		length: n,
		cols:   make([][]int64, ncols),
		nulls:  make([]nullBitmap, ncols),
	}
	if n > 0 {
		flat := make([]int64, ncols*n)
		for c := range ch.cols {
			ch.cols[c] = flat[c*n : (c+1)*n : (c+1)*n]
		}
	}
	return ch
}

// Len returns the number of rows.
func (ch *Chunk) Len() int { return ch.length }

// chunksFromFlat carves a set of chunks out of one shared flat backing
// array: chunk i has ncols columns of counts[i] rows each. The layout is
// column-major across the whole set — all chunks' column 0 first, then all
// chunks' column 1, ... — so a caller that knows a row's global slot g
// (its offset within the concatenated chunk set) addresses column c at
// flat[c*total+g], independent of which chunk the row landed in. The radix
// shuffle kernel uses this to back a whole per-destination bucket set with
// a single pooled allocation and to scatter each column in one pass over a
// single destination slice. The backing array's contents are NOT cleared —
// callers must write every slot (see radixPartitionChunk) — and the
// produced chunks alias flat, so they must not outlive its return to the
// pool.
func chunksFromFlat(ncols int, counts []int32, flat []int64) []*Chunk {
	total := 0
	for _, cnt := range counts {
		total += int(cnt)
	}
	out := make([]*Chunk, len(counts))
	start := 0
	for i, cnt := range counts {
		n := int(cnt)
		ch := &Chunk{
			length: n,
			cols:   make([][]int64, ncols),
			nulls:  make([]nullBitmap, ncols),
		}
		for c := 0; c < ncols; c++ {
			off := c*total + start
			ch.cols[c] = flat[off : off+n : off+n]
		}
		out[i] = ch
		start += n
	}
	return out
}

// datum materialises one value as a Datum. NULL values come back exactly
// as NullDatum (payload zero), so rows converted out of a chunk compare
// equal under == to rows that never went through the columnar layer.
func (ch *Chunk) datum(c, r int) Datum {
	if ch.nulls[c].get(r) {
		return NullDatum
	}
	return Datum{Int: ch.cols[c][r]}
}

// ensureNulls returns column c's bitmap, allocating it on first NULL.
func (ch *Chunk) ensureNulls(c int) nullBitmap {
	if ch.nulls[c] == nil {
		ch.nulls[c] = newNullBitmap(ch.length)
	}
	return ch.nulls[c]
}

// rowsToChunk converts rows into one chunk — the ValuesPlan edge of the
// engine, and the component index's view of an insert.
func rowsToChunk(rows []Row, ncols int) *Chunk {
	ch := newChunk(ncols, len(rows))
	for r, row := range rows {
		ch.setRow(r, row)
	}
	return ch
}

// setRow stores row as row r of a chunk that is still being filled.
func (ch *Chunk) setRow(r int, row Row) {
	for c := range ch.cols {
		if d := row[c]; d.Null {
			ch.ensureNulls(c).set(r)
		} else {
			ch.cols[c][r] = d.Int
		}
	}
}

// chunkToRows materialises chunks of one arity as rows, in order — the
// Query and ReadAll edge of the engine. All rows share one flat Datum
// backing array, so the conversion costs two allocations, not one per
// row. No rows at all return nil.
func chunkToRows(chunks ...*Chunk) []Row {
	n := int(countRows(chunks))
	if n == 0 {
		return nil
	}
	w := len(chunks[0].cols)
	flat := make([]Datum, n*w)
	rows := make([]Row, 0, n)
	for _, ch := range chunks {
		for r := 0; r < ch.length; r++ {
			row := flat[len(rows)*w : (len(rows)+1)*w : (len(rows)+1)*w]
			for c := range row {
				row[c] = ch.datum(c, r)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// gatherChunk copies the selected rows, in index order, into a fresh
// exact-capacity chunk (the output path of Filter, Distinct and Sort).
func gatherChunk(in *Chunk, idx []int32) *Chunk {
	out := newChunk(len(in.cols), len(idx))
	for c := range in.cols {
		out.nulls[c] = gatherCol(out.cols[c], in.cols[c], in.nulls[c], idx)
	}
	return out
}

// gatherCol copies the selected rows of one column, in index order, into
// dst and returns their null bitmap, nil when none of them is NULL. A
// source column without NULLs is copied without per-row null tests.
func gatherCol(dst, src []int64, nb nullBitmap, idx []int32) nullBitmap {
	if nb == nil {
		for i, r := range idx {
			dst[i] = src[r]
		}
		return nil
	}
	var out nullBitmap
	for i, r := range idx {
		if nb.get(int(r)) {
			if out == nil {
				out = newNullBitmap(len(idx))
			}
			out.set(i)
		} else {
			dst[i] = src[r]
		}
	}
	return out
}

// copyChunkInto copies src into dst starting at row offset off, returning
// the offset after the copy. Values move column-at-a-time (a memcpy per
// column); null bits are only touched for columns that have any.
func copyChunkInto(dst, src *Chunk, off int) int {
	for c := range src.cols {
		copy(dst.cols[c][off:], src.cols[c])
		if src.nulls[c] != nil {
			db := dst.ensureNulls(c)
			sb := src.nulls[c]
			for r := 0; r < src.length; r++ {
				if sb.get(r) {
					db.set(off + r)
				}
			}
		}
	}
	return off + src.length
}

// concatChunks concatenates chunks of identical arity into one
// exact-capacity chunk (UnionAll, gather-to-coordinator, broadcast).
func concatChunks(ncols int, chunks []*Chunk) *Chunk {
	total := 0
	for _, ch := range chunks {
		total += ch.length
	}
	out := newChunk(ncols, total)
	off := 0
	for _, ch := range chunks {
		off = copyChunkInto(out, ch, off)
	}
	return out
}

// padRight extends ch with rw additional all-NULL columns — the
// unmatched-probe rows of a left outer join. The left columns alias ch and
// the NULL columns share one zeroed backing and one all-ones bitmap, so
// the pad costs O(rows/64) regardless of width.
func padRight(ch *Chunk, rw int) *Chunk {
	ncols := len(ch.cols)
	out := &Chunk{
		length: ch.length,
		cols:   make([][]int64, ncols+rw),
		nulls:  make([]nullBitmap, ncols+rw),
	}
	copy(out.cols, ch.cols)
	copy(out.nulls, ch.nulls)
	zeros := make([]int64, ch.length)
	allNull := newNullBitmap(ch.length)
	for i := range allNull {
		allNull[i] = ^uint64(0)
	}
	for c := ncols; c < ncols+rw; c++ {
		out.cols[c] = zeros
		out.nulls[c] = allNull
	}
	return out
}

// chunkBuilder grows a chunk whose output cardinality is not known up
// front (join matches, group-by states). Columns grow by amortized
// append; null bitmaps are allocated per column on first NULL and
// zero-extended lazily, so all-valid columns never touch them. Group-by
// kernels additionally mutate aggregate state in place through mergeAgg.
type chunkBuilder struct {
	cols  [][]int64
	nulls []nullBitmap
	n     int
}

func newChunkBuilder(ncols, capHint int) *chunkBuilder {
	b := &chunkBuilder{
		cols:  make([][]int64, ncols),
		nulls: make([]nullBitmap, ncols),
	}
	if capHint > 0 {
		for c := range b.cols {
			b.cols[c] = make([]int64, 0, capHint)
		}
	}
	return b
}

// setNull marks row i of column c NULL, growing the bitmap to cover i.
func (b *chunkBuilder) setNull(c, i int) {
	words := i>>6 + 1
	for len(b.nulls[c]) < words {
		b.nulls[c] = append(b.nulls[c], 0)
	}
	b.nulls[c].set(i)
}

// appendCol appends one value to column c (the caller advances b.n once
// per row via finishRow or the row-level helpers).
func (b *chunkBuilder) appendCol(c int, v int64, null bool) {
	i := len(b.cols[c])
	b.cols[c] = append(b.cols[c], v)
	if null {
		b.setNull(c, i)
	}
}

// appendRows appends rows lo .. hi-1 of src (same arity), one copy per
// column.
func (b *chunkBuilder) appendRows(src *Chunk, lo, hi int) {
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], src.cols[c][lo:hi]...)
		if nb := src.nulls[c]; nb != nil {
			for r := lo; r < hi; r++ {
				if nb.get(r) {
					b.setNull(c, b.n+r-lo)
				}
			}
		}
	}
	b.n += hi - lo
}

// appendJoinRow emits the concatenation of left row li and right row ri.
func (b *chunkBuilder) appendJoinRow(left *Chunk, li int, right *Chunk, ri int) {
	lw := len(left.cols)
	for c := 0; c < lw; c++ {
		b.appendCol(c, left.cols[c][li], left.nulls[c].get(li))
	}
	for c := range right.cols {
		b.appendCol(lw+c, right.cols[c][ri], right.nulls[c].get(ri))
	}
	b.n++
}

// appendOuterRow emits left row li padded with rw NULL right columns (the
// unmatched side of a left outer join).
func (b *chunkBuilder) appendOuterRow(left *Chunk, li, rw int) {
	lw := len(left.cols)
	for c := 0; c < lw; c++ {
		b.appendCol(c, left.cols[c][li], left.nulls[c].get(li))
	}
	for c := 0; c < rw; c++ {
		b.appendCol(lw+c, 0, true)
	}
	b.n++
}

// appendGroupRow starts a new group from row r of a partial-layout chunk:
// the nk key columns are copied and every aggregate slot starts NULL,
// mirroring the row engine's fresh aggState.
func (b *chunkBuilder) appendGroupRow(in *Chunk, r, nk, naggs int) {
	for c := 0; c < nk; c++ {
		b.appendCol(c, in.cols[c][r], in.nulls[c].get(r))
	}
	for c := nk; c < nk+naggs; c++ {
		b.appendCol(c, 0, true)
	}
	b.n++
}

// mergeAgg folds value (v, vnull) into the aggregate state of group g at
// column c — the columnar counterpart of the row engine's aggState merge,
// with identical NULL semantics: MIN/MAX/SUM ignore NULL inputs, COUNT
// adds the partial count payload, and an untouched state stays NULL.
func (b *chunkBuilder) mergeAgg(c int, g int32, op AggOp, v int64, vnull bool) {
	curNull := b.nulls[c].get(int(g))
	switch op {
	case AggMin:
		if vnull {
			return
		}
		if curNull || v < b.cols[c][g] {
			b.setAgg(c, g, v)
		}
	case AggMax:
		if vnull {
			return
		}
		if curNull || v > b.cols[c][g] {
			b.setAgg(c, g, v)
		}
	case AggCount:
		if curNull {
			b.setAgg(c, g, v)
			return
		}
		b.cols[c][g] += v
	case AggSum:
		if vnull {
			return
		}
		if curNull {
			b.setAgg(c, g, v)
			return
		}
		b.cols[c][g] += v
	}
}

// setAgg stores a non-NULL aggregate state value.
func (b *chunkBuilder) setAgg(c int, g int32, v int64) {
	b.cols[c][g] = v
	if b.nulls[c] != nil {
		words := len(b.nulls[c])
		if int(g)>>6 < words {
			b.nulls[c].clear(int(g))
		}
	}
}

// finish seals the builder into a chunk.
func (b *chunkBuilder) finish() *Chunk {
	return &Chunk{length: b.n, cols: b.cols, nulls: b.nulls}
}
