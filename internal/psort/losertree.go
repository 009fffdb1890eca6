package psort

// loserTree is a tournament tree for stable k-way merging: each leaf is
// the head of one sorted run; internal nodes store the loser of the
// comparison below, so replacing the overall winner costs exactly
// ceil(log2 k) comparisons. This is the classic structure used by the GNU
// parallel-mode multiway merge the paper builds on. It is written once
// over the cell width: bare keys and key+payload records run the same
// replay, runner-up scan and drains, each stencilled for its own stride.
//
// The zero value is ready for Reset, and Reset rebinds a used tree to a
// fresh set of runs without allocating (when the padded width still
// fits), so steady-state merge loops stay at zero allocations per
// operation.
type loserTree[C cell] struct {
	runs  [][]C   // remaining suffix of each run
	tree  []int   // tree[i] = run index of the loser at internal node i
	heads []int64 // heads[i] = runs[i][0][0] while run i is live (stale after)
	win   []int   // tournament scratch for build, kept across Resets
	k     int     // number of leaves (power-of-two padded)
	live  int     // runs not yet exhausted
}

// Reset binds the tree to the given sorted runs of cells, viewing each
// as whole elements; empty runs are allowed and immediately count as
// exhausted. The runs are consumed through the tree's own headers (the
// caller's slice table is not modified). Backing arrays are reused when
// the padded leaf count still fits; after Reset the tree behaves exactly
// like a freshly built one.
func (lt *loserTree[C]) Reset(runs [][]int64) {
	n := len(runs)
	k := 1
	for k < n {
		k <<= 1
	}
	if cap(lt.runs) < k {
		lt.runs = make([][]C, k)
		lt.tree = make([]int, k)
		lt.heads = make([]int64, k)
		lt.win = make([]int, 2*k)
	}
	lt.runs = lt.runs[:k]
	lt.tree = lt.tree[:k]
	lt.heads = lt.heads[:k]
	lt.win = lt.win[:2*k]
	lt.k = k
	lt.live = 0
	for i := range lt.runs {
		var r []C
		if i < n {
			r = asCells[C](runs[i])
		}
		lt.runs[i] = r
		if len(r) > 0 {
			lt.heads[i] = r[0][0]
			lt.live++
		}
	}
	lt.build()
}

// head reports the key of run i's current first element; exhausted runs
// compare as +infinity so they always lose.
func (lt *loserTree[C]) head(i int) (int64, bool) {
	r := lt.runs[i]
	if len(r) == 0 {
		return 0, false
	}
	return r[0][0], true
}

// less reports whether run a's head should win against run b's head.
// Ties break toward the lower run index, making the merge stable across
// run order.
func (lt *loserTree[C]) less(a, b int) bool {
	va, oka := lt.head(a)
	vb, okb := lt.head(b)
	switch {
	case !oka:
		return false
	case !okb:
		return true
	case va != vb:
		return va < vb
	default:
		return a < b
	}
}

// build initialises the loser tree bottom-up by running the tournament,
// using the struct-held winners scratch so Reset really is
// allocation-free on reuse.
func (lt *loserTree[C]) build() {
	// winners[j] for internal node j computed bottom-up; node j's children
	// are 2j and 2j+1 among internal nodes, leaves start at lt.k.
	winners := lt.win
	for i := 0; i < lt.k; i++ {
		winners[lt.k+i] = i
	}
	for j := lt.k - 1; j >= 1; j-- {
		a, b := winners[2*j], winners[2*j+1]
		if lt.less(a, b) {
			winners[j] = a
			lt.tree[j] = b
		} else {
			winners[j] = b
			lt.tree[j] = a
		}
	}
	lt.tree[0] = winners[1] // overall winner parked at the root slot
}

// Empty reports whether every run is exhausted.
func (lt *loserTree[C]) Empty() bool { return lt.live == 0 }

// Pop removes and returns the element with the smallest head key.
// Calling Pop on an empty tree panics. Draining a tree with Pop alone is
// the reference every width's batched drain is differentially tested
// against: it takes the uncached replay, one element at a time.
func (lt *loserTree[C]) Pop() C {
	if lt.live == 0 {
		panic("psort: Pop from empty loser tree")
	}
	w := lt.tree[0]
	r := lt.runs[w]
	v := r[0]
	r = r[1:]
	lt.runs[w] = r
	if len(r) == 0 {
		lt.live--
	} else {
		lt.heads[w] = r[0][0]
	}
	lt.replay(w)
	return v
}

// replay re-runs the tournament along the path from leaf w to the root
// after run w's head changed, restoring the tree invariant and parking
// the new overall winner in tree[0].
func (lt *loserTree[C]) replay(w int) {
	cur := w
	for j := (lt.k + w) / 2; j >= 1; j /= 2 {
		if lt.less(lt.tree[j], cur) {
			cur, lt.tree[j] = lt.tree[j], cur
		}
	}
	lt.tree[0] = cur
}

// replayCached is replay with the head-key cache: comparisons read
// heads[i] (one int64 load) instead of chasing runs[i][0] through the
// slice table, and the climbing contender's key and liveness stay in
// registers. It requires heads[] to be current, which every drain path
// maintains; Pop keeps the uncached replay as the reference.
func (lt *loserTree[C]) replayCached(w int) {
	cur := w
	curV := lt.heads[cur]
	curLive := len(lt.runs[cur]) > 0
	for j := (lt.k + w) / 2; j >= 1; j /= 2 {
		c := lt.tree[j]
		if len(lt.runs[c]) == 0 {
			continue
		}
		cv := lt.heads[c]
		if !curLive || cv < curV || (cv == curV && c < cur) {
			lt.tree[j] = cur
			cur, curV, curLive = c, cv, true
		}
	}
	lt.tree[0] = cur
}

// runnerUp reports the head key and run index of the best non-winner,
// given the current winner leaf w. Every run other than the winner lost
// exactly one match, and the global runner-up can only have lost to the
// winner itself, so it sits on w's leaf-to-root path; scanning that
// path's losers finds it in ceil(log2 k) comparisons. ok is false when
// every other run is exhausted.
func (lt *loserTree[C]) runnerUp(w int) (v int64, idx int, ok bool) {
	idx = -1
	for j := (lt.k + w) / 2; j >= 1; j /= 2 {
		cand := lt.tree[j]
		if len(lt.runs[cand]) == 0 {
			continue
		}
		cv := lt.heads[cand]
		if !ok || cv < v || (cv == v && cand < idx) {
			v, idx, ok = cv, cand, true
		}
	}
	return v, idx, ok
}

// MergeInto drains the tree into dst in adaptive batches and reports the
// number of elements written; dst must be large enough for all remaining
// elements and must not alias the runs. It emits per element (one replay
// each, same as a Pop drain) until a single run wins gallopMin times in
// a row, then switches to batch mode: find the prefix of the winning run
// that beats the runner-up's head with a galloping search, bulk-copy it,
// and replay the tree once for the whole streak. Short batches drop back
// to per-element mode. On runs with any locality (pre-sorted blocks,
// few-unique keys, skewed ranges) this collapses most of the comparison
// work into memmove; on fully interleaved runs it costs one streak
// counter over the Pop drain. Batching matters even more for records
// than for bare keys, because every per-element emission moves a full
// record through the tournament bookkeeping while a batch moves them
// with one copy.
func (lt *loserTree[C]) MergeInto(dst []C) int {
	n := 0
	lastW, streak := -1, 0
	galloping := false
	for lt.live > 1 {
		w := lt.tree[0]
		if !galloping {
			if w == lastW {
				streak++
			} else {
				lastW, streak = w, 1
			}
			if streak < gallopMin {
				// Per-element emission: Pop, inlined, with the cached replay.
				run := lt.runs[w]
				dst[n] = run[0]
				n++
				lt.runs[w] = run[1:]
				if len(run) == 1 {
					lt.live--
				} else {
					lt.heads[w] = run[1][0]
				}
				lt.replayCached(w)
				continue
			}
			galloping = true
		}
		run := lt.runs[w]
		ruVal, ruIdx, ok := lt.runnerUp(w)
		if !ok {
			break // no live rival: flush below
		}
		// The winner's emittable streak follows the tree's tie rule:
		// equal heads go to the lower run index.
		var m int
		if w < ruIdx {
			m = gallopLE(run, ruVal)
		} else {
			m = gallopLT(run, ruVal)
		}
		if m == 0 {
			m = 1 // the winner always emits at least its head
		}
		copy(dst[n:], run[:m])
		n += m
		rest := run[m:]
		lt.runs[w] = rest
		if len(rest) == 0 {
			lt.live--
		} else {
			lt.heads[w] = rest[0][0]
		}
		lt.replayCached(w)
		if m < gallopMin {
			galloping = false
			lastW, streak = -1, 0
		}
	}
	if lt.live == 1 {
		w := lt.tree[0]
		run := lt.runs[w]
		copy(dst[n:], run)
		n += len(run)
		lt.runs[w] = run[:0]
		lt.live--
	}
	return n
}

// mergeCells merges the sorted runs of len(C)-wide elements into dst
// stably (ties go to the lower run index); dst must have exactly the
// combined length and alias none of them. For k==1 it degenerates to a
// copy and for k==2 to the adaptive two-way merge; larger fan-ins build
// a tree, which allocates.
func mergeCells[C cell](dst []int64, runs [][]int64) {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if len(dst) != total {
		panic("psort: k-way merge destination length mismatch")
	}
	switch len(runs) {
	case 0:
		return
	case 1:
		copy(dst, runs[0])
		return
	case 2:
		merge2(asCells[C](dst), asCells[C](runs[0]), asCells[C](runs[1]))
		return
	}
	var lt loserTree[C]
	lt.Reset(runs)
	lt.MergeInto(asCells[C](dst))
}

// MergeK merges the given sorted runs into dst using a loser tree; dst must
// have exactly the combined length. For k==1 it degenerates to a copy and
// for k==2 to the branch-predictable two-way merge.
func MergeK(dst []int64, runs ...[]int64) {
	mergeCells[[1]int64](dst, runs)
}
