package engine

import "sync"

// Pooled per-task scratch buffers. Shuffle destination maps and
// filter/distinct selection vectors are needed once per segment task and
// discarded immediately; recycling them through a sync.Pool keeps the
// steady-state allocation rate of a query round independent of its row
// count. Buffers are returned before the owning kernel publishes its
// output, so no pooled memory ever escapes into a chunk.
//
// The pool stores *[]int32 boxes and hands the box itself to the caller:
// taking and returning the same pointer is what keeps the round-trip
// allocation-free (a by-value Put would box a fresh *[]int32 on every
// call). Callers that append must write the grown slice back through the
// pointer before putI32, so the enlarged capacity is what gets recycled.

// i32Scratch is a pooled []int32 used for row-index and destination
// scratch vectors.
var i32Scratch = sync.Pool{
	New: func() any {
		s := make([]int32, 0, 1024)
		return &s
	},
}

// getI32 returns a pooled scratch box whose slice is non-nil and
// zero-length with capacity >= n. Pass the same pointer back to putI32
// when done.
func getI32(n int) *[]int32 {
	p := i32Scratch.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, 0, n)
	}
	*p = (*p)[:0]
	return p
}

// putI32 recycles a scratch box obtained from getI32.
func putI32(p *[]int32) {
	i32Scratch.Put(p)
}

// i64Scratch is a pooled []int64 used as the flat column backing of the
// radix-partitioned shuffle's per-destination buckets. Unlike getI32, the
// slice is handed out at full length with stale contents: the radix
// scatter writes every slot exactly once (NULL slots are explicitly
// zeroed), so clearing here would be a second pass over the hot data for
// nothing.
var i64Scratch = sync.Pool{
	New: func() any {
		s := make([]int64, 0, 4096)
		return &s
	},
}

// getI64 returns a pooled scratch box whose slice has length n and
// UNDEFINED contents — the caller must store to every slot before anything
// reads them. Pass the same pointer back to putI64 when done; buckets
// backed by the slice must not be referenced after that.
func getI64(n int) *[]int64 {
	p := i64Scratch.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	}
	*p = (*p)[:n]
	return p
}

// putI64 recycles a scratch box obtained from getI64.
func putI64(p *[]int64) {
	i64Scratch.Put(p)
}
