package psort

// float64 sort kernels: the bit-flip transform from keys.go composed
// with the int64 kernel suite. The pattern is transform → sort → invert:
// both transforms are single streaming passes (branch-free bit math, no
// compares), so the float sort runs within a few percent of the int64
// sort at the same size and inherits every int64 kernel property —
// the digit plan, trivial-digit skip, tiled scatter, run/reverse
// detection on the mapped keys (monotone maps preserve runs).
//
// The order produced is the keys.go total order:
//
//	NaN(sign=1) < -Inf < negatives < -0.0 < +0.0 < positives < +Inf < NaN(sign=0)
//
// which is Float64TotalLess, and matches what the service's float64 jobs
// return. Sorting is deterministic down to the bit: -0.0 and +0.0 keep
// distinct positions and NaNs order by their payload bits.

// SortFloat64sScratch sorts xs ascending in the Float64TotalLess total
// order using scratch as the radix ping-pong buffer; scratch may be nil
// or short, in which case the comparison path is used, exactly like
// SortAdaptive. The sort performs no allocation. Scratch contents on
// return are unspecified.
func SortFloat64sScratch(xs, scratch []float64) {
	if len(xs) < 2 {
		return
	}
	keys := f64AsI64(xs)
	SortableFromFloat64Bits(keys)
	SortAdaptive(keys, f64AsI64(scratch))
	Float64BitsFromSortable(keys)
}
