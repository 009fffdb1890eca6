package psort

// Fixed-width key+payload records. A record is sorted by its int64 key
// only; the payload rides along untouched, and equal-key records keep
// their input order (every record path is stable, so the payload
// permutation is deterministic). Records have no kernels of their own:
// a KV is the kernel core's cell at width 2, so the entry points here
// are views over the same diverting LSD radix with the tiled
// scatter, the same adaptive two-way merge and the same branch-free
// loser tree with the gallop-batched drain that the int64 suite runs.
// What stays record-specific is the small-input sort: bare keys fall
// back to introsort, which is not stable.

// KV is the service's record shape: int64 key, int64 payload. It is 16
// bytes, 8-aligned, bit-identical to [2]int64, which is what lets record
// jobs flow through the existing []int64 buffer plumbing: KVsFromInt64s
// / Int64sFromKVs view the service's pooled int64 buffers as records
// without copying, and asCells hands the same memory to the kernels.
type KV struct {
	Key     int64
	Payload int64
}

// recRadixMinLen is the record-sort crossover from binary-insertion to
// LSD radix. Records move 2x+ the bytes of a bare key per swap, which
// punishes the O(n^2) moves of insertion sort sooner than for int64;
// the histogram overhead amortizes by a few hundred records.
const recRadixMinLen = 256

// SortRecordsScratch sorts rs ascending by key, stably, using scratch as
// the radix ping-pong buffer; scratch must be at least as long as rs and
// must not alias it. The sort performs no allocation. Scratch contents
// on return are unspecified.
func SortRecordsScratch(rs, scratch []KV) {
	n := len(rs)
	if n < 2 {
		return
	}
	if n < recRadixMinLen {
		binaryInsertionRecords(rs)
		return
	}
	radixSort(kvCells(rs), kvCells(scratch), nil, tiles[[2]int64](n), splits[[2]int64](n))
}

// kvCells hands records to the kernel core as width-2 cells.
func kvCells(rs []KV) [][2]int64 { return asCells[[2]int64](Int64sFromKVs(rs)) }

// binaryInsertionRecords is the stable small-input sort: binary search
// for the insertion point (few key comparisons — records are wide, but
// keys are one load), then a bulk move. Strictly-greater search keeps
// equal keys in input order.
func binaryInsertionRecords(rs []KV) {
	for i := 1; i < len(rs); i++ {
		r := rs[i]
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if rs[mid].Key <= r.Key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < i {
			copy(rs[lo+1:i+1], rs[lo:i])
			rs[lo] = r
		}
	}
}
