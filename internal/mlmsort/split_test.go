package mlmsort

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"knlmlm/internal/psort"
	"knlmlm/internal/workload"
)

// blocksMerge is the megachunk sort the split replaced, kept as its
// reference leg: w workers each sort one block of mc, then the blocks
// merge into dst (two through the two-ended two-way merge, more through
// the loser tree), or through scratch and back when dst is nil.
func blocksMerge(mc, scratch, dst []int64, w, cells int) {
	m := len(mc) / cells
	scratch = scratch[:len(mc)]
	runs := make([][]int64, 0, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo, hi := m*i/w*cells, m*(i+1)/w*cells
		runs = append(runs, mc[lo:hi])
		wg.Add(1)
		go func(block, blockScratch []int64) {
			defer wg.Done()
			psort.SortBlock(block, blockScratch, nil, 1, cells)
		}(mc[lo:hi], scratch[lo:hi])
	}
	wg.Wait()
	if dst != nil {
		psort.MergeRound(dst, runs, w, cells)
		return
	}
	psort.MergeRound(scratch, runs, w, cells)
	copy(mc, scratch)
}

// TestMegachunkSplitMatchesBlocksMerge: the sorter at widths 1 to 3, in
// place and into a run buffer, gives the cells blocks-plus-merge gives,
// keys and records (payload = input index; keys drawn from 512 random
// values, so their top digits spread and every key repeats), on a
// megachunk wide enough for three shares.
func TestMegachunkSplitMatchesBlocksMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const cells = 3*8<<10 + 10
	values := workload.Generate(workload.Random, 512, 33)
	for _, elem := range []ElemKind{ElemInt64, ElemKV} {
		var src []int64
		if elem == ElemKV {
			src = recordJob(rng, cells/2)
			for i := 0; i < len(src); i += 2 {
				src[i] = values[rng.Intn(len(values))]
			}
		} else {
			src = workload.Generate(workload.Random, cells, 32)
		}
		for w := 1; w <= 3; w++ {
			for _, into := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/w%d/into-%v", elem, w, into), func(t *testing.T) {
					want, got := slices.Clone(src), slices.Clone(src)
					scratch := make([]int64, cells)
					var wantDst, gotDst []int64
					if into {
						wantDst, gotDst = make([]int64, cells), make([]int64, cells)
					}
					blocksMerge(want, scratch, wantDst, w, elem.cells())
					newMegachunkSorter(w, elem).sort(got, scratch, gotDst)
					if into {
						want, got = wantDst, gotDst
					}
					if !slices.Equal(got, want) {
						t.Error("the split's cells differ from blocks-plus-merge")
					}
				})
			}
		}
	}
}

// benchMegachunk times one 192Ki-key megachunk sorted by two workers into
// a run buffer, the library's shape (lib-large's megachunks), either
// split (the sorter) or as two blocks and a two-way merge (the
// reference). The pair CI floors.
func benchMegachunk(b *testing.B, split bool) {
	const cells = 192 << 10
	src := workload.Generate(workload.Random, cells, 1)
	mc, scratch, dst := make([]int64, cells), make([]int64, cells), make([]int64, cells)
	sorter := newMegachunkSorter(2, ElemInt64)
	b.SetBytes(cells * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(mc, src)
		b.StartTimer()
		if split {
			sorter.sort(mc, scratch, dst)
		} else {
			blocksMerge(mc, scratch, dst, 2, 1)
		}
	}
}

func BenchmarkMegachunkMerge192Ki(b *testing.B) { benchMegachunk(b, false) }
func BenchmarkMegachunkSplit192Ki(b *testing.B) { benchMegachunk(b, true) }
