package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dbcc/internal/xrand"
)

// Disk spilling: the file substrate of the memory-bounded kernels.
//
// Spilling kernels write sequences of encoded chunks ("frames") into
// partition files under a per-statement directory of the cluster's spill
// root (an os.MkdirTemp directory created on first use and removed by
// Cluster.Close). The statement directory is removed when the statement
// finishes — success or failure — so an error mid-spill never leaks
// partition files; the leak-check tests scan SpillRoot afterwards.
//
// Each frame is length-prefixed and self-describing:
//
//	u32 frameLen                      byte length of the body below
//	u32 ncols, u32 nrows              chunk shape
//	per column:
//	  u8  hasNulls                    0 = all valid, 1 = bitmap present
//	  u64 × ceil(nrows/64) bitmap     only when hasNulls = 1
//	  i64 × nrows values              little-endian
//
// decodeChunkFrame validates the header against sanity caps and the
// available byte count before allocating, so a corrupted or adversarial
// file (the fuzz target FuzzChunkCodec) fails cleanly instead of
// panicking or over-allocating.
//
// Spill file writes are a failure surface for the fault injector:
// FaultConfig.SpillFailureRate makes individual frame writes fail with
// ErrInjectedFault, deterministically per (seed, statement, operator,
// segment, attempt, write ordinal). The failure propagates out of the
// segment task and is retried by the ordinary retry loop; partition files
// are opened with O_TRUNC under deterministic names, so a retried attempt
// overwrites its predecessor's partial output — the idempotence the
// engine's task model requires.

// Sanity caps for decoding untrusted frames.
const (
	spillMaxCols       = 1 << 12
	spillMaxRows       = 1 << 24
	spillMaxFrameBytes = 1 << 30
)

// errSpillCorrupt marks a malformed spill frame.
var errSpillCorrupt = errors.New("engine: corrupt spill frame")

// encodeChunkFrame appends the frame body (without the length prefix) of
// ch to buf and returns the extended slice.
func encodeChunkFrame(buf []byte, ch *Chunk) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ch.cols)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ch.length))
	words := (ch.length + 63) / 64
	for c := range ch.cols {
		nb := ch.nulls[c]
		if nb == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			// Builder bitmaps grow lazily and may be shorter than the full
			// word count; encode always writes full words, zero-padded.
			for w := 0; w < words; w++ {
				var v uint64
				if w < len(nb) {
					v = nb[w]
				}
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		}
		col := ch.cols[c]
		for r := 0; r < ch.length; r++ {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(col[r]))
		}
	}
	return buf
}

// decodeChunkFrame decodes one frame body from data, returning the chunk
// and the number of bytes consumed.
func decodeChunkFrame(data []byte) (*Chunk, int, error) {
	if len(data) < 8 {
		return nil, 0, errSpillCorrupt
	}
	ncols := int(binary.LittleEndian.Uint32(data[0:4]))
	nrows := int(binary.LittleEndian.Uint32(data[4:8]))
	if ncols < 0 || ncols > spillMaxCols || nrows < 0 || nrows > spillMaxRows {
		return nil, 0, errSpillCorrupt
	}
	words := (nrows + 63) / 64
	// Cheap size check before allocating: every column needs at least the
	// flag byte plus its values.
	if minLen := 8 + ncols*(1+8*nrows); len(data) < minLen {
		return nil, 0, errSpillCorrupt
	}
	ch := newChunk(ncols, nrows)
	off := 8
	for c := 0; c < ncols; c++ {
		if off >= len(data) {
			return nil, 0, errSpillCorrupt
		}
		hasNulls := data[off]
		off++
		if hasNulls > 1 {
			return nil, 0, errSpillCorrupt
		}
		if hasNulls == 1 {
			if off+8*words > len(data) {
				return nil, 0, errSpillCorrupt
			}
			nb := make(nullBitmap, words)
			for w := 0; w < words; w++ {
				nb[w] = binary.LittleEndian.Uint64(data[off : off+8])
				off += 8
			}
			// Bits beyond nrows would silently corrupt later gathers.
			if nrows%64 != 0 && words > 0 && nb[words-1]>>(uint(nrows)%64) != 0 {
				return nil, 0, errSpillCorrupt
			}
			ch.nulls[c] = nb
		}
		if off+8*nrows > len(data) {
			return nil, 0, errSpillCorrupt
		}
		col := ch.cols[c]
		for r := 0; r < nrows; r++ {
			col[r] = int64(binary.LittleEndian.Uint64(data[off : off+8]))
			off += 8
		}
	}
	return ch, off, nil
}

// ensureSpillRoot lazily creates the cluster's spill root directory.
func (c *Cluster) ensureSpillRoot() (string, error) {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spillRoot == "" {
		dir, err := os.MkdirTemp("", "dbcc-spill-")
		if err != nil {
			return "", fmt.Errorf("engine: creating spill root: %w", err)
		}
		c.spillRoot = dir
	}
	return c.spillRoot, nil
}

// SpillRoot returns the cluster's spill directory, or "" if no statement
// has spilled yet. Statement subdirectories are removed when their
// statement finishes, so between statements the root is empty — the
// invariant the spill leak-check tests scan for.
func (c *Cluster) SpillRoot() string {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	return c.spillRoot
}

// Close releases the cluster's disk resources (the spill root directory
// and everything under it). The cluster remains usable; a later spill
// recreates the root. Close is safe to call multiple times and on
// clusters that never spilled.
func (c *Cluster) Close() error {
	c.spillMu.Lock()
	dir := c.spillRoot
	c.spillRoot = ""
	c.spillMu.Unlock()
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}

// ensureSpillDir lazily creates this statement's spill directory. Safe
// for concurrent use by segment tasks; the directory is removed by
// execEnv.close when the statement finishes.
func (e *execEnv) ensureSpillDir() (string, error) {
	e.spillOnce.Do(func() {
		root, err := e.c.ensureSpillRoot()
		if err != nil {
			e.spillDirErr = err
			return
		}
		dir := filepath.Join(root, fmt.Sprintf("stmt%d", e.stmt))
		if err := os.MkdirAll(dir, 0o700); err != nil {
			e.spillDirErr = fmt.Errorf("engine: creating statement spill dir: %w", err)
			return
		}
		e.spillDir = dir
	})
	return e.spillDir, e.spillDirErr
}

// noteSpill records spill activity in both the operator counters (drained
// into OpMetrics by finishOp) and the statement ledger (folded into
// cluster Stats by execEnv.close).
func (e *execEnv) noteSpill(bytes, parts, passes int64) {
	e.opSpilled.Add(bytes)
	e.opSpillParts.Add(parts)
	e.opSpillPasses.Add(passes)
	e.acct.spilledBytes.Add(bytes)
	e.acct.spillParts.Add(parts)
	e.acct.spillPasses.Add(passes)
}

// spillIOFault consults the fault injector before a physical spill write.
// The decision is a pure function of (seed, statement, operator, segment,
// attempt, ordinal), so chaos runs reproduce exactly; the returned error
// wraps ErrInjectedFault, making the whole segment-task attempt retryable.
func (e *execEnv) spillIOFault(seg int, ordinal *int64) error {
	fi := e.c.injector
	if fi == nil || fi.cfg.SpillFailureRate <= 0 {
		return nil
	}
	nth := *ordinal
	*ordinal = nth + 1
	attempt := int(e.curAttempt[seg].Load())
	if !fi.decideSpillIO(e.stmt, e.opSeq.Load(), seg, attempt, nth) {
		return nil
	}
	e.opFaults.Add(1)
	return fmt.Errorf("spill write (stmt %d seg %d attempt %d io %d): %w",
		e.stmt, seg, attempt, nth, ErrInjectedFault)
}

// spillFanout picks the partition fan-out for an estimated working set:
// enough partitions that each is expected to fit the share, between 2 and
// 32 (the paper's substrate, like PostgreSQL's hash join, caps fan-out
// and recurses on oversized partitions instead of opening thousands of
// files). The fan-out is additionally capped so the partition buffers
// alone — at their one-row floor — never exceed half the share: a very
// tight share gets fewer partitions and deeper recursion instead of a
// structural budget breach.
func spillFanout(est, share, rowBytes int64) int {
	f := int64(4)
	for f*share < est && f < 32 {
		f <<= 1
	}
	for f > 2 && 2*f*rowBytes > share {
		f >>= 1
	}
	return int(f)
}

// spillSalt derives the partition-hash perturbation for one recursion
// depth, so re-partitioning an oversized partition redistributes its rows
// instead of rehashing them into a single bucket again.
func spillSalt(depth int) uint64 {
	return 0x5f11ed ^ uint64(depth)*0x9e3779b97f4a7c15
}

// maxSpillDepth caps partition recursion. A partition that still exceeds
// the share at the cap (e.g. one extremely hot key, which no amount of
// re-partitioning can split) is processed in memory — correctness over
// the budget, the same escape hatch real executors use.
const maxSpillDepth = 6

// spillPartWriter is one partition file of a partitionSet plus its frame
// buffer. frame holds the buffered rows (frame.length of them); its
// columns are this partition's bufRows-row windows of the set's shared
// value buffer, and frame.nulls[c] is non-nil exactly while the buffered
// rows hold a NULL in column c — the encoded frame then carries a bitmap,
// as a freshly built chunk would.
type spillPartWriter struct {
	f     *os.File
	path  string
	frame Chunk
	rows  int64 // rows written to the file (excluding the open buffer)
	bytes int64 // bytes written to the file
}

// partitionSet fans one segment task's rows out into fanout partition
// files. Each partition buffers up to bufRows rows before writing them as
// one frame. The buffers are preallocated as one value array of
// fanout × ncols × bufRows int64s, reused across flushes, and exactly that
// array is charged to the statement ledger for the set's lifetime; bufRows
// adapts to the share so the charge stays within half of it.
type partitionSet struct {
	e       *execEnv
	seg     int
	parts   []*spillPartWriter
	ncols   int
	bufRows int
	vals    []int64 // column c of partition p: vals[c*stride+p*bufRows:][:bufRows]
	stride  int     // fanout × bufRows
	pids    []int32 // per-block scratch: partition of each row, -1 = dropped
	slots   []int32 // per-block scratch: p*bufRows + buffer row, -1 = dropped
	scratch []byte
	ioSeq   *int64
	charged int64
}

// spillBufRows sizes partition buffers: the whole set (fanout buffers of
// ncols 8-byte values) should use at most half the share, within sane
// bounds. The floor is a single row — tiny shares trade frame granularity
// for staying accountable.
func spillBufRows(share int64, fanout, ncols int) int {
	rowB := int64(ncols) * 8
	if rowB <= 0 {
		rowB = 8
	}
	rows := share / (2 * int64(fanout) * rowB)
	if rows < 1 {
		rows = 1
	}
	if rows > 1024 {
		rows = 1024
	}
	return int(rows)
}

// scatterBlock is the number of input rows a partitionSet assigns to
// partitions at a time.
const scatterBlock = 1024

// newPartitionSet creates fanout partition files under dir named
// "<base>_p<i>". Files are created with O_TRUNC semantics (os.Create), so
// a retried task attempt deterministically overwrites its own partials.
func (e *execEnv) newPartitionSet(seg int, dir, base string, fanout, ncols int, ioSeq *int64) (*partitionSet, error) {
	bufRows := spillBufRows(e.segShare(), fanout, ncols)
	ps := &partitionSet{
		e:       e,
		seg:     seg,
		parts:   make([]*spillPartWriter, fanout),
		ncols:   ncols,
		bufRows: bufRows,
		vals:    make([]int64, fanout*ncols*bufRows),
		stride:  fanout * bufRows,
		pids:    make([]int32, scatterBlock),
		slots:   make([]int32, scatterBlock),
		ioSeq:   ioSeq,
	}
	for i := range ps.parts {
		path := filepath.Join(dir, fmt.Sprintf("%s_p%d.part", base, i))
		f, err := os.Create(path)
		if err != nil {
			ps.abort()
			return nil, fmt.Errorf("engine: creating spill partition: %w", err)
		}
		w := &spillPartWriter{
			f:     f,
			path:  path,
			frame: Chunk{cols: make([][]int64, ncols), nulls: make([]nullBitmap, ncols)},
		}
		for c := range w.frame.cols {
			off := c*ps.stride + i*bufRows
			w.frame.cols[c] = ps.vals[off : off+bufRows : off+bufRows]
		}
		ps.parts[i] = w
	}
	ps.charged = int64(len(ps.vals)) * 8
	e.acct.charge(ps.charged)
	return ps, nil
}

// partitionFunc assigns rows lo .. lo+len(pids)-1 of ch to partitions,
// writing -1 for a row that is dropped.
type partitionFunc func(ch *Chunk, lo int, pids []int32)

// keyPartitions partitions rows by the salted hash of one key column.
// NULL keys go to partition 0 when keepNull is set (probe sides: they
// never match but must surface for outer joins) and are dropped otherwise
// (build sides never insert them).
func keyPartitions(key, fanout int, salt uint64, keepNull bool) partitionFunc {
	return func(ch *Chunk, lo int, pids []int32) {
		for i, k := range ch.cols[key][lo : lo+len(pids)] {
			pids[i] = int32(xrand.Mix64(uint64(k)^salt) % uint64(fanout))
		}
		if nb := ch.nulls[key]; nb != nil {
			var null int32 = -1
			if keepNull {
				null = 0
			}
			for i := range pids {
				if nb.get(lo + i) {
					pids[i] = null
				}
			}
		}
	}
}

// rowPartitions partitions rows by the salted hash of their first nk
// columns (group keys, or whole rows for DISTINCT), so all rows of one
// group land in one partition.
func rowPartitions(nk, fanout int, salt uint64) partitionFunc {
	return func(ch *Chunk, lo int, pids []int32) {
		for i := range pids {
			pids[i] = int32(xrand.Mix64(chunkRowHash(ch, 0, nk, lo+i)^salt) % uint64(fanout))
		}
	}
}

// scatter routes every row of src to the partition part assigns it. When
// the set is one column wider than src, the extra trailing column is the
// hidden original-row index the spill kernels carry, written as the row's
// position in src.
//
// Rows move column-at-a-time: for each block of rows the partition ids
// are computed once, every row gets its buffer slot, and then each column
// is copied into the buffers in one pass. A block is cut right after the
// row that fills a buffer, and that buffer is flushed before the next row
// is placed, so frames end at the same rows — and are written in the same
// order — as appending one row at a time would produce.
func (ps *partitionSet) scatter(src *Chunk, part partitionFunc) error {
	hidden := ps.ncols == len(src.cols)+1
	for lo := 0; lo < src.length; lo += scatterBlock {
		n := min(scatterBlock, src.length-lo)
		pids, slots := ps.pids[:n], ps.slots[:n]
		part(src, lo, pids)
		for start := 0; start < n; {
			end, full := n, -1
			for i := start; i < n; i++ {
				p := pids[i]
				if p < 0 {
					slots[i] = -1
					continue
				}
				w := ps.parts[p]
				slots[i] = p*int32(ps.bufRows) + int32(w.frame.length)
				w.frame.length++
				if w.frame.length == ps.bufRows {
					end, full = i+1, int(p)
					break
				}
			}
			ps.copyRows(src, lo, start, end, hidden)
			if full >= 0 {
				if err := ps.flush(full); err != nil {
					return err
				}
			}
			start = end
		}
	}
	return nil
}

// copyRows copies block rows start .. end-1 (rows lo+start .. lo+end-1 of
// src) into the buffer slots scatter assigned them.
func (ps *partitionSet) copyRows(src *Chunk, lo, start, end int, hidden bool) {
	slots := ps.slots[start:end]
	for c := range src.cols {
		dst := ps.vals[c*ps.stride : (c+1)*ps.stride]
		for i, v := range src.cols[c][lo+start : lo+end] {
			if s := slots[i]; s >= 0 {
				dst[s] = v
			}
		}
		nb := src.nulls[c]
		if nb == nil {
			continue
		}
		for i, s := range slots {
			if s >= 0 && nb.get(lo+start+i) {
				ps.setNull(int(s), c)
			}
		}
	}
	if hidden {
		dst := ps.vals[len(src.cols)*ps.stride:]
		for i, s := range slots {
			if s >= 0 {
				dst[s] = int64(lo + start + i)
			}
		}
	}
}

// setNull marks the buffered row at slot (p*bufRows + row) NULL in column
// c, giving the open frame a bitmap for c on its first NULL there.
func (ps *partitionSet) setNull(slot, c int) {
	w := ps.parts[slot/ps.bufRows]
	if w.frame.nulls[c] == nil {
		w.frame.nulls[c] = newNullBitmap(ps.bufRows)
	}
	w.frame.nulls[c].set(slot % ps.bufRows)
}

// partitionChunk writes every row of ch, tagged with its hidden row
// index, into a new set of fanout partition files — the first pass of a
// spilling kernel.
func (e *execEnv) partitionChunk(seg int, dir, base string, ch *Chunk, fanout int,
	part partitionFunc, ioSeq *int64) ([]*spillPartWriter, error) {
	ps, err := e.newPartitionSet(seg, dir, base, fanout, len(ch.cols)+1, ioSeq)
	if err != nil {
		return nil, err
	}
	if err := ps.scatter(ch, part); err != nil {
		ps.abort()
		return nil, err
	}
	return ps.finish()
}

// repartitionFile streams a partition file of ncols columns (the hidden
// index already among them) into fanout sub-partitions.
func (e *execEnv) repartitionFile(seg int, dir, base, path string, ncols, fanout int,
	part partitionFunc, ioSeq *int64) ([]*spillPartWriter, error) {
	ps, err := e.newPartitionSet(seg, dir, base, fanout, ncols, ioSeq)
	if err != nil {
		return nil, err
	}
	sr, err := openSpillReader(path)
	if err != nil {
		ps.abort()
		return nil, err
	}
	defer sr.close()
	for {
		fr, err := sr.next()
		if err == nil && fr == nil {
			return ps.finish()
		}
		if err == nil {
			err = ps.scatter(fr, part)
		}
		if err != nil {
			ps.abort()
			return nil, err
		}
	}
}

// writeSpillFrame length-prefixes, encodes and writes one frame through
// the fault-injection hook, returning the bytes written. The caller's
// scratch buffer is reused across frames.
func (e *execEnv) writeSpillFrame(seg int, f *os.File, scratch *[]byte, fr *Chunk, ioSeq *int64) (int64, error) {
	buf := (*scratch)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, 0) // frameLen placeholder
	buf = encodeChunkFrame(buf, fr)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
	*scratch = buf
	if err := e.spillIOFault(seg, ioSeq); err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err != nil {
		return 0, fmt.Errorf("engine: writing spill frame: %w", err)
	}
	return int64(len(buf)), nil
}

// flush encodes and writes partition p's buffered rows as one frame and
// empties the buffer for reuse.
func (ps *partitionSet) flush(p int) error {
	w := ps.parts[p]
	n := w.frame.length
	if n == 0 {
		return nil
	}
	nb, err := ps.e.writeSpillFrame(ps.seg, w.f, &ps.scratch, &w.frame, ps.ioSeq)
	if err != nil {
		return err
	}
	w.rows += int64(n)
	w.bytes += nb
	clear(w.frame.nulls)
	w.frame.length = 0
	return nil
}

// finish flushes and closes every partition file, reports the pass to the
// spill counters, releases the buffer charge, and returns the writers
// (rows/bytes per partition) for the caller to read back.
func (ps *partitionSet) finish() ([]*spillPartWriter, error) {
	var total int64
	for p := range ps.parts {
		if err := ps.flush(p); err != nil {
			ps.abort()
			return nil, err
		}
		if err := ps.parts[p].f.Close(); err != nil {
			ps.abort()
			return nil, fmt.Errorf("engine: closing spill partition: %w", err)
		}
		ps.parts[p].f = nil
		total += ps.parts[p].bytes
	}
	ps.e.acct.release(ps.charged)
	ps.charged = 0
	ps.e.noteSpill(total, int64(len(ps.parts)), 1)
	return ps.parts, nil
}

// abort closes any open files and releases charges after a failure. The
// files themselves are removed with the statement's spill directory.
func (ps *partitionSet) abort() {
	for _, w := range ps.parts {
		if w != nil && w.f != nil {
			w.f.Close()
			w.f = nil
		}
	}
	ps.e.acct.release(ps.charged)
	ps.charged = 0
}

// spillReader streams frames back out of one partition file.
type spillReader struct {
	f   *os.File
	br  *bufio.Reader
	buf []byte
}

func openSpillReader(path string) (*spillReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("engine: opening spill partition: %w", err)
	}
	return &spillReader{f: f, br: bufio.NewReaderSize(f, 1<<15)}, nil
}

// next returns the next frame, or (nil, nil) at end of file.
func (sr *spillReader) next() (*Chunk, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(sr.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("engine: reading spill frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > spillMaxFrameBytes {
		return nil, errSpillCorrupt
	}
	if cap(sr.buf) < int(n) {
		sr.buf = make([]byte, n)
	}
	sr.buf = sr.buf[:n]
	if _, err := io.ReadFull(sr.br, sr.buf); err != nil {
		return nil, fmt.Errorf("engine: reading spill frame: %w", err)
	}
	ch, _, err := decodeChunkFrame(sr.buf)
	return ch, err
}

func (sr *spillReader) close() {
	if sr.f != nil {
		sr.f.Close()
		sr.f = nil
	}
}

// readPartition reads a whole partition file back as one chunk of ncols
// columns (the build side of a grace join sub-partition).
func readPartition(path string, ncols int) (*Chunk, error) {
	sr, err := openSpillReader(path)
	if err != nil {
		return nil, err
	}
	defer sr.close()
	var frames []*Chunk
	for {
		fr, err := sr.next()
		if err != nil {
			return nil, err
		}
		if fr == nil {
			break
		}
		frames = append(frames, fr)
	}
	if len(frames) == 1 {
		return frames[0], nil
	}
	return concatChunks(ncols, frames), nil
}
