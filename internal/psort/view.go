package psort

import "unsafe"

// In-memory reinterpretation between layout-identical slice types. These
// views are what let one kernel core serve every fixed-width key type:
// float64 and int64 are the same 8-byte, 8-aligned cell, [1]int64 is
// that cell again, and a KV record and [2]int64 are exactly two of them.
// Unlike the wire package's byte-level zero copy, nothing here depends
// on endianness — the views never change how memory is *interpreted
// across machines*, only which Go type reads the same cells in this
// process — so the views need no purego fallback.

// cell is the element the per-element kernels are written over: a
// fixed-width array of int64 cells ordered by c[0], with any payload
// riding behind the key. Go allows the constant index through this
// union and stencils each width separately, so the width costs nothing
// per element. It has to be an array: a struct with a zero-width payload
// is still padded to 16 bytes (unsafe.Sizeof(struct{ K int64; P struct{} }{})),
// so only [1]int64 is layout-identical to a bare key.
type cell interface{ ~[1]int64 | ~[2]int64 }

// asCells views a cell buffer as whole elements of width len(C): this
// is where the service's []int64 plumbing (pools, leases, spill runs,
// wire frames) meets the kernels, once per run rather than per element.
// Panics when xs is not whole elements.
func asCells[C cell](xs []int64) []C {
	var c C
	if len(xs)%len(c) != 0 {
		panic("psort: cell buffer is not whole elements")
	}
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*C)(unsafe.Pointer(&xs[0])), len(xs)/len(c))
}

// keyCells views a buffer of width-1 cells as bare-key cells, for the
// vector merge; C must be one int64 wide.
func keyCells[C cell](xs []C) [][1]int64 {
	return unsafe.Slice((*[1]int64)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))
}

// f64AsI64 views a []float64 as []int64 over the same memory: element i
// is the raw IEEE-754 bit pattern of xs[i].
func f64AsI64(xs []float64) []int64 {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&xs[0])), len(xs))
}

// KVsFromInt64s views an even-length []int64 as []KV: record i is the
// pair (xs[2i], xs[2i+1]). It is the typed face of asCells[[2]int64]
// for callers that want named fields; the physical buffer stays
// []int64. Panics on odd length — a record split in half is a corrupted
// buffer, never a valid job.
func KVsFromInt64s(xs []int64) []KV {
	if len(xs)%2 != 0 {
		panic("psort: KV view of odd-length int64 slice")
	}
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*KV)(unsafe.Pointer(&xs[0])), len(xs)/2)
}

// Int64sFromKVs is the inverse view of KVsFromInt64s.
func Int64sFromKVs(rs []KV) []int64 {
	if len(rs) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&rs[0])), len(rs)*2)
}
