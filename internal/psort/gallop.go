package psort

// Galloping search helpers shared by the two-way merge base case and the
// batched loser-tree drain. Both kernels exploit the same fact: when one
// run is "winning" a merge, its next several elements usually win too, so
// finding the end of the winning streak with an exponential + binary
// search and bulk-copying the prefix beats emitting elements one at a
// time through branchy compare loops.
//
// The two variants are written out rather than sharing a predicate
// closure, so the compare stays a register comparison inside the probe
// loops; the cell width is a type parameter and costs nothing there.
// Both assume run is sorted ascending by key and cost O(log m) for a
// result of m.

// gallopLE reports the length of the prefix of run whose keys are <= v:
// exponential probe (1, 3, 7, 15, ...) then binary search of the final
// interval.
func gallopLE[C cell](run []C, v int64) int {
	n := len(run)
	if n == 0 || run[0][0] > v {
		return 0
	}
	lo, hi := 0, 1
	for hi < n && run[hi][0] <= v {
		lo = hi
		hi = 2*hi + 1
	}
	if hi > n {
		hi = n
	}
	// Invariant: run[lo] <= v, and hi == n or run[hi] > v.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid][0] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// gallopLT reports the length of the prefix of run whose keys are
// strictly < v.
func gallopLT[C cell](run []C, v int64) int {
	n := len(run)
	if n == 0 || run[0][0] >= v {
		return 0
	}
	lo, hi := 0, 1
	for hi < n && run[hi][0] < v {
		lo = hi
		hi = 2*hi + 1
	}
	if hi > n {
		hi = n
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid][0] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 1
}
