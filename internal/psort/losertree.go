package psort

import (
	"math"
	"math/bits"
)

// node is one tournament entry: a run's head key beside the leaf it sits
// at, held together so a match reads the tree and nothing else. The key
// is stored biased, because replay decides a match by the borrow of an
// unsigned subtraction.
type node struct {
	key  uint64
	leaf int
}

// bias maps a key to the unsigned integer of the same rank by flipping
// the sign bit; flipping it again maps back.
func bias(k int64) uint64 { return uint64(k) ^ 1<<63 }

// leaves is the width of a tree over n runs: the power of two at or
// above n, and 1 for none, because an empty tree still has its root.
func leaves(n int) int { return 1 << bits.Len(uint(max(n, 1)-1)) }

// loserTree is a tournament tree for stable k-way merging: each leaf is
// the head of one sorted run; internal nodes store the loser of the
// match below, so replacing the overall winner costs exactly
// ceil(log2 k) matches. This is the classic structure used by the GNU
// parallel-mode multiway merge the paper builds on. It is written once
// over the cell width: bare keys and key+payload records run the same
// replay, runner-up scan and drains, each stencilled for its own stride.
//
// Every leaf in the tree is live. The live runs occupy leaves 0..live-1
// in run order and the leaves that pad the width to a power of two hold
// +inf; a run that exhausts is taken out and the tree rebuilt over the
// rest, which happens at most once per run. That leaves a match one
// rule: the smaller key wins, and on equal keys the left subtree does.
// Left is the lower run, so the merge is stable by run order, and
// padding sits right of every run, so a real math.MaxInt64 still beats
// it. A match therefore never asks whether a run is exhausted or which
// of two indices is lower, and replay decides it without a branch.
//
// The zero value is ready for Reset, and Reset rebinds a used tree to a
// fresh set of runs without allocating (when the run count still fits),
// as do the rebuilds, so steady-state merge loops stay at zero
// allocations per operation.
type loserTree[C cell] struct {
	runs [][]C  // live runs in run order: leaf i reads runs[i]
	pos  []int  // pos[i] = cursor of leaf i's head in runs[i]
	tree []node // tree[0] = overall winner, tree[j] = loser of the match at node j
	win  []node // winners scratch for build, kept across Resets
	live int    // runs not yet exhausted
}

// Reset binds the tree to the given sorted runs of cells, viewing each
// as whole elements; empty runs are allowed and never enter the tree.
// The runs are consumed through the tree's own cursors (the caller's
// slice table is not modified). Backing arrays are reused when the run
// count still fits; after Reset the tree behaves exactly like a freshly
// built one.
func (lt *loserTree[C]) Reset(runs [][]int64) {
	if k := leaves(len(runs)); cap(lt.runs) < k {
		lt.runs = make([][]C, k)
		lt.pos = make([]int, k)
		lt.tree = make([]node, k)
		lt.win = make([]node, 2*k)
	}
	clear(lt.runs[:cap(lt.runs)]) // a half-drained merge must not pin its runs
	lt.runs = lt.runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			lt.runs = append(lt.runs, asCells[C](r))
		}
	}
	lt.live = len(lt.runs)
	lt.pos = lt.pos[:lt.live]
	clear(lt.pos)
	lt.build()
}

// build runs the tournament over the live runs' heads bottom-up, in the
// struct-held winners scratch so neither Reset nor a rebuild allocates.
func (lt *loserTree[C]) build() {
	k := leaves(lt.live)
	lt.tree = lt.tree[:k]
	win := lt.win[:2*k]
	for i := range win[k:] {
		key := uint64(math.MaxUint64)
		if i < lt.live {
			key = bias(lt.runs[i][lt.pos[i]][0])
		}
		win[k+i] = node{key, i}
	}
	// Node j's children are 2j (left) and 2j+1; the leaves start at k.
	for j := k - 1; j >= 1; j-- {
		a, b := win[2*j], win[2*j+1]
		if b.key < a.key {
			a, b = b, a
		}
		win[j], lt.tree[j] = a, b
	}
	lt.tree[0] = win[1]
}

// drop takes the exhausted run at leaf w out of the tree: the runs
// after it move down one leaf, keeping run order, and the tournament is
// rebuilt over the rest.
func (lt *loserTree[C]) drop(w int) {
	lt.live--
	copy(lt.runs[w:], lt.runs[w+1:])
	lt.runs[lt.live] = nil
	lt.runs = lt.runs[:lt.live]
	copy(lt.pos[w:], lt.pos[w+1:])
	lt.pos = lt.pos[:lt.live]
	lt.build()
}

// Empty reports whether every run is exhausted.
func (lt *loserTree[C]) Empty() bool { return lt.live == 0 }

// Pop removes and returns the element with the smallest head key.
// Calling Pop on an empty tree panics. Draining a tree with Pop alone is
// the per-element drain the batched one is benchmarked against; the two
// share replay and drop, so tests check both against a stable sort too.
func (lt *loserTree[C]) Pop() C {
	if lt.live == 0 {
		panic("psort: Pop from empty loser tree")
	}
	w := lt.tree[0].leaf
	run, p := lt.runs[w], lt.pos[w]+1
	if p == len(run) {
		lt.drop(w)
	} else {
		lt.pos[w] = p
		lt.replay(w, run[p][0])
	}
	return run[p-1]
}

// b2i is 1 for true and 0 for false. The compiler turns it into a flag
// read (SETcc), which is what lets the merges count and select without
// branching.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replay re-runs the tournament along the path from leaf w to the root
// after its head key changed, restoring the tree invariant and parking
// the new overall winner in tree[0].
//
// Which run wins a match between random keys is a coin flip, so the
// match must not be a branch. The stored loser t beats the climbing
// contender on a smaller key, or on an equal one when the contender came
// up from the right child: t.key < cur.key + bit, bit 0 of the
// contender's position, which is exactly the borrow out of
// t.key - cur.key - bit. The borrow becomes an all-ones or all-zeros
// mask, and both entries are exchanged under it and stored
// unconditionally (SBB, AND, XOR: four dependent instructions a level).
// Spelled as a condition with || the compiler emits a branch per clause.
func (lt *loserTree[C]) replay(w int, key int64) {
	tree := lt.tree
	cur := node{bias(key), w}
	for p := len(tree) + w; p > 1; p >>= 1 {
		t := &tree[p>>1]
		_, b := bits.Sub64(t.key, cur.key, uint64(p&1))
		swap := -b
		dk, dl := (t.key^cur.key)&swap, (t.leaf^cur.leaf)&int(swap)
		t.key, t.leaf = t.key^dk, t.leaf^dl
		cur.key, cur.leaf = cur.key^dk, cur.leaf^dl
	}
	tree[0] = cur
}

// runnerUp reports the best non-winner, given the current winner leaf w
// and at least one other live run. Every run other than the winner lost
// exactly one match, and the global runner-up can only have lost to the
// winner itself, so it sits on w's leaf-to-root path; scanning that
// path's losers finds it in ceil(log2 k) comparisons. It is a real run:
// padding loses to every run, on ties too.
func (lt *loserTree[C]) runnerUp(w int) (key int64, leaf int) {
	p := (len(lt.tree) + w) >> 1
	best := lt.tree[p]
	for p >>= 1; p >= 1; p >>= 1 {
		if t := lt.tree[p]; t.key < best.key || (t.key == best.key && t.leaf < best.leaf) {
			best = t
		}
	}
	return int64(best.key ^ 1<<63), best.leaf
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
// counter, itself branch-free, over the Pop drain. Batching matters even
// more for records than for bare keys, because every per-element
// emission moves a full record through the tournament bookkeeping while
// a batch moves them with one copy.
func (lt *loserTree[C]) MergeInto(dst []C) int {
	n := 0
	lastW, streak := -1, 0
	galloping := false
	for lt.live > 1 {
		w := lt.tree[0].leaf
		run, p := lt.runs[w], lt.pos[w]
		m := 1
		if !galloping {
			streak = streak&-b2i(w == lastW) + 1
			lastW = w
			galloping = streak >= gallopMin
		}
		if !galloping {
			dst[n] = run[p]
		} else {
			// The winner's emittable streak follows the tree's tie rule:
			// equal heads go to the lower leaf. It holds at least the head.
			if ruKey, ruLeaf := lt.runnerUp(w); w < ruLeaf {
				m = gallopLE(run[p:], ruKey)
			} else {
				m = gallopLT(run[p:], ruKey)
			}
			copy(dst[n:], run[p:p+m])
			if m < gallopMin {
				galloping, lastW = false, -1 // count afresh
			}
		}
		n += m
		p += m
		if p == len(run) {
			lt.drop(w)
			lastW = -1 // the drop renumbered the leaves
			continue
		}
		lt.pos[w] = p
		lt.replay(w, run[p][0])
	}
	if lt.live == 1 {
		n += copy(dst[n:], lt.runs[0][lt.pos[0]:])
		lt.drop(0)
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
// for k==2 to the adaptive two-way merge.
func MergeK(dst []int64, runs ...[]int64) {
	mergeCells[[1]int64](dst, runs)
}
