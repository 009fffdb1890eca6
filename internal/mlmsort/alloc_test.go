package mlmsort

import (
	"runtime"
	"testing"

	"knlmlm/internal/mem"
	"knlmlm/internal/race"
	"knlmlm/internal/workload"
)

// TestComputeLoopAllocationFree: the per-megachunk compute body — the
// steady-state inner loop of every real run — must not leave garbage
// once the pools are warm. One worker allocates nothing at all (adaptive
// sort straight into pooled scratch); two spawn their goroutines, and the
// split's per-worker tables come from psort's pool, so the heap bytes per
// megachunk stay under 1 KiB at either width, below the split threshold
// and above it, in place and into a run buffer. A sorter is built per
// megachunk, as a one-megachunk job builds one, so split state tied to
// the sorter would show here.
func TestComputeLoopAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	for _, tc := range []struct {
		name        string
		width, elem int
		into        bool
	}{
		{"w1-20K", 1, 20_000, false},
		{"w1-512Ki-into", 1, 512 << 10, true},
		{"w2-20K", 2, 20_000, false},
		{"w2-512Ki", 2, 512 << 10, false},
		{"w2-512Ki-into", 2, 512 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := workload.Generate(workload.Random, tc.elem, 21)
			mc := make([]int64, tc.elem)
			var dst []int64
			if tc.into {
				dst = make([]int64, tc.elem)
			}
			scratch := mem.Pool.Get(tc.elem)
			defer mem.Pool.Put(scratch)
			body := func() {
				copy(mc, src)
				newMegachunkSorter(tc.width, ElemInt64).sort(mc, scratch, dst)
			}
			body() // warm the split's pool
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				body()
			}
			runtime.ReadMemStats(&after)
			if perMC := (after.TotalAlloc - before.TotalAlloc) / runs; perMC >= 1024 {
				t.Errorf("steady-state compute loop leaves %d heap bytes per megachunk, want under 1 KiB", perMC)
			}
			sorter := newMegachunkSorter(tc.width, ElemInt64)
			allocs := testing.AllocsPerRun(10, func() {
				copy(mc, src)
				sorter.sort(mc, scratch, dst)
			})
			if tc.width == 1 && allocs != 0 {
				t.Errorf("one worker allocates %.1f times per megachunk", allocs)
			}
			out := mc
			if tc.into {
				out = dst
			}
			if !workload.IsSorted(out) {
				t.Fatal("sorter broke the data")
			}
		})
	}
}

// TestRealRunAllocationScaling: with the shared pool warm, adding
// megachunks to a run must not add per-megachunk heap allocations — the
// whole point of pooling the pipeline buffers, sort scratch, and the
// final-merge target. Fixed per-run costs (channels, goroutines, the
// bounds table) are allowed; the marginal cost per extra megachunk must
// stay near zero.
func TestRealRunAllocationScaling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	const n = 64_000
	src := workload.Generate(workload.Random, n, 23)
	buf := make([]int64, n)
	measure := func(mcLen int) float64 {
		return testing.AllocsPerRun(5, func() {
			copy(buf, src)
			if err := RunReal(MLMSort, buf, 1, mcLen); err != nil {
				t.Fatal(err)
			}
		})
	}
	few := measure(16_000) // 4 megachunks
	many := measure(2_000) // 32 megachunks
	if !workload.IsSorted(buf) {
		t.Fatal("output not sorted")
	}
	marginal := (many - few) / 28
	if marginal > 1.5 {
		t.Errorf("allocations scale with megachunks: 4mc=%.0f 32mc=%.0f (%.2f per megachunk)",
			few, many, marginal)
	}
}
