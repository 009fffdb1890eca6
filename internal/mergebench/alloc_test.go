package mergebench

import (
	"testing"

	"knlmlm/internal/mem"
	"knlmlm/internal/psort"
	"knlmlm/internal/race"
	"knlmlm/internal/workload"
)

// TestMergeComputeLoopAllocationFree: the benchmark's per-chunk compute
// body (adaptive half-sorts plus repeated two-way merges through pooled
// scratch) must not allocate in steady state.
func TestMergeComputeLoopAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	const chunkLen = 16_384
	src := workload.Generate(workload.Random, chunkLen, 7)
	buf := make([]int64, chunkLen)
	scratch := mem.Pool.Get(chunkLen)
	defer mem.Pool.Put(scratch)
	allocs := testing.AllocsPerRun(10, func() {
		copy(buf, src)
		half := len(buf) / 2
		psort.SortAdaptive(buf[:half], scratch[:half])
		psort.SortAdaptive(buf[half:], scratch[half:])
		s := scratch[:len(buf)]
		for r := 0; r < 4; r++ {
			psort.Merge2(s, buf[:half], buf[half:])
			copy(buf, s)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state merge compute loop allocates %.1f times per chunk", allocs)
	}
	if !workload.IsSorted(buf) {
		t.Fatal("compute loop broke the data")
	}
}

// TestRunRealReusesPool: back-to-back runs must serve their scratch and
// staging buffers from the shared pool instead of reallocating.
func TestRunRealReusesPool(t *testing.T) {
	src := workload.Generate(workload.Random, 40_000, 9)
	if _, err := runReal(src, 8_192, 2, 3); err != nil {
		t.Fatal(err)
	}
	before := mem.Pool.Stats()
	out, err := runReal(src, 8_192, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := mem.Pool.Stats()
	if gets, hits := st.Gets-before.Gets, st.Hits-before.Hits; hits < gets {
		t.Errorf("second run missed the pool: %d gets, only %d hits", gets, hits)
	}
	for i := 0; i < len(out); i += 8_192 {
		hi := i + 8_192
		if hi > len(out) {
			hi = len(out)
		}
		if !workload.IsSorted(out[i:hi]) {
			t.Fatalf("chunk at %d not sorted", i)
		}
	}
}
