package psort

import (
	"context"
	"fmt"
	"io"
	"sort"

	"knlmlm/internal/mem"
)

// parallelMergeMin is the smallest merge round worth fanning out: below
// it the multisequence-selection splits and goroutine joins cost more
// than the loser-tree pass they parallelize.
const parallelMergeMin = 64 << 10

// MergeRound merges sorted runs of cells-wide elements into dst, which
// must have their combined length and alias none of them, through the
// k-way loser tree. It makes the serial/parallel choice and picks the
// cell width for its two callers: the basic chunked algorithm's final
// merge (runRealBasic in internal/mlmsort) and every WindowMerge round of
// the disk tier's spill merge.
// MergeRounds picks the width for the pairwise rounds, and SortBlock for
// the block sorts. Bare keys (cells 1) take the serial loser tree for
// small rounds or a single worker and ParallelMergeK otherwise, with the
// fan-out capped so every worker keeps at least parallelMergeMin/2
// elements of real work. Records (cells 2, interleaved key/payload)
// always take the serial loser tree, stable by run order — multisequence
// selection is keyed on bare cells and has no record variant.
func MergeRound(dst []int64, runs [][]int64, threads, cells int) {
	switch {
	case cells == 2:
		mergeCells[[2]int64](dst, runs)
	case cells != 1:
		panic("psort: MergeRound cell width must be 1 or 2")
	case threads > 1 && len(dst) >= parallelMergeMin && len(runs) > 1:
		ParallelMergeK(dst, runs, min(threads, len(dst)/(parallelMergeMin/2)))
	default:
		mergeCells[[1]int64](dst, runs)
	}
}

// BlockSource is one sorted input of WindowMerge, delivered block by
// block: a run file read ahead from disk, or memory. Next returns the next non-empty block of cells — keys
// nondecreasing within and across blocks — or a bare io.EOF after the
// last one. A block stays valid until the next call on the same source,
// which the merge makes only once it has emitted the block's last cell,
// so a source may recycle the previous block's memory there.
type BlockSource interface {
	Next(ctx context.Context) ([]int64, error)
}

// WindowMerge is the streaming k-way merge of the disk tier: it merges
// srcs, in order, into a nondecreasing stream
// of blocks handed to emit (each valid only during the call) and returns
// the cell count emitted. cells is the element width (1 bare keys, 2
// key/payload records merged stably by source order); threads is each
// round's MergeRound fan-out; the output buffer is drawn from pool (nil
// allocates).
//
// The merge emits "safe windows": with every live source's current block
// in hand, every element no greater than the smallest block-final key is
// globally placeable, so those prefixes are merged and flushed. Each
// round fully consumes at least the bounding source's block, which
// guarantees progress. The rounds are only sound if every source is
// sorted, so every emitted block's first key is checked against the
// previous block's last key and an inversion — an unsorted run file —
// fails the merge instead of being emitted.
func WindowMerge(ctx context.Context, srcs []BlockSource, cells, threads int, pool *mem.SlicePool, emit func([]int64) error) (int64, error) {
	if cells != 1 && cells != 2 {
		return 0, fmt.Errorf("psort: WindowMerge cell width %d, want 1 or 2", cells)
	}
	k := len(srcs)
	heads := make([][]int64, k) // unconsumed portion of each source's current block
	done := make([]bool, k)
	prefixes := make([][]int64, 0, k)
	var out []int64
	defer func() { pool.Put(out) }()
	var total, prevLast int64

	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		// Refill every live source and find the safe bound: everything <=
		// the smallest block-final key is in hand. For records that is the
		// key cell of the last record, one cell before the block end.
		held, first := 0, true
		var bound int64
		for si, src := range srcs {
			for len(heads[si]) == 0 && !done[si] {
				b, err := src.Next(ctx)
				if err == io.EOF {
					done[si] = true
					break
				}
				if err != nil {
					return total, err
				}
				if len(b)%cells != 0 {
					// A record split across blocks can only mean the source
					// was written with a different element width; merging it
					// would interleave keys and payloads.
					return total, fmt.Errorf("psort: source %d block of %d cells is not whole %d-cell elements", si, len(b), cells)
				}
				heads[si] = b
			}
			h := heads[si]
			if len(h) == 0 {
				continue
			}
			held += len(h)
			if last := h[len(h)-cells]; first || last < bound {
				bound, first = last, false
			}
		}
		if held == 0 {
			break // every source drained
		}
		// Stability across rounds (records only): a source whose whole head
		// is <= bound may continue with more ==bound keys in its next
		// block, and any later source emitting ==bound records this round
		// would jump ahead of them. Sources after the first such open one
		// therefore cut strictly below the bound and hold their ==bound
		// records for a later round, where the loser tree restores source
		// order. The open source itself emits its full head, which is what
		// keeps every round making progress. Bare int64 ties are
		// indistinguishable, so cells == 1 keeps the inclusive cut.
		open := k
		if cells == 2 {
			for si := range heads {
				if h := heads[si]; len(h) > 0 && h[len(h)-cells] <= bound {
					open = si
					break
				}
			}
		}
		prefixes = prefixes[:0]
		sum := 0
		for si, h := range heads {
			if len(h) == 0 {
				continue
			}
			// The binary search walks elements (record keys live at even
			// cell offsets); the cut converts back to cells so heads and
			// prefixes stay record-aligned.
			above := func(j int) bool { return h[j*cells] > bound }
			if si > open {
				above = func(j int) bool { return h[j*cells] >= bound }
			}
			if p := sort.Search(len(h)/cells, above) * cells; p > 0 {
				prefixes = append(prefixes, h[:p])
				heads[si] = h[p:]
				sum += p
			}
		}
		// One contributing source — what every round degenerates to when
		// runs are disjoint or a single run covered the job — needs no
		// merge at all: the prefix is already the round's sorted output, so
		// it is emitted in place instead of being copied through out.
		block := prefixes[0]
		if len(prefixes) > 1 {
			if cap(out) < sum {
				pool.Put(out)
				out = pool.GetOrAlloc(held)
			}
			block = out[:sum]
			MergeRound(block, prefixes, threads, cells)
		}
		if total > 0 && block[0] < prevLast {
			return total, fmt.Errorf("psort: merge round starts at key %d after emitting %d: a source is not sorted", block[0], prevLast)
		}
		prevLast = block[sum-cells]
		if err := emit(block); err != nil {
			return total, err
		}
		total += int64(sum)
	}
	return total, ctx.Err()
}
