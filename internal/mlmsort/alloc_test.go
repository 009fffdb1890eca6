package mlmsort

import (
	"testing"

	"knlmlm/internal/mem"
	"knlmlm/internal/race"
	"knlmlm/internal/workload"
)

// TestComputeLoopAllocationFree: the per-megachunk compute body — the
// steady-state inner loop of every real run — must not allocate once the
// pool is warm (single-worker fast path: adaptive sort straight into
// pooled scratch).
func TestComputeLoopAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	const mcLen = 20_000
	src := workload.Generate(workload.Random, mcLen, 21)
	mc := make([]int64, mcLen)
	scratch := mem.Pool.Get(mcLen)
	defer mem.Pool.Put(scratch)
	sorter := newMegachunkSorter(1, ElemInt64)
	allocs := testing.AllocsPerRun(10, func() {
		copy(mc, src)
		sorter.sort(mc, scratch, nil)
	})
	if allocs != 0 {
		t.Errorf("steady-state compute loop allocates %.1f times per megachunk", allocs)
	}
	if !workload.IsSorted(mc) {
		t.Fatal("sorter broke the data")
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
