package mergebench

import (
	"context"
	"errors"
	"sort"
	"testing"

	"knlmlm/internal/exec"
	"knlmlm/internal/memkind"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// failBuffers is a deterministic AllocFaults stub keyed by buffer index.
type failBuffers map[int]bool

func (f failBuffers) FailAlloc(i int) bool { return f[i] }

// checkMerged verifies the benchmark's contract: every output chunk is
// the sorted permutation of its input chunk.
func checkMerged(t *testing.T, src, out []int64, chunkLen int) {
	t.Helper()
	for lo := 0; lo < len(src); lo += chunkLen {
		hi := lo + chunkLen
		if hi > len(src) {
			hi = len(src)
		}
		want := append([]int64(nil), src[lo:hi]...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if out[lo+i] != want[i] {
				t.Fatalf("chunk at %d: out[%d] = %d, want %d", lo, lo+i, out[lo+i], want[i])
			}
		}
	}
}

// TestResilientBufferDegradation: a heap with room for only one HBW
// buffer degrades the other two to DDR and the benchmark still runs
// correctly at full width.
func TestResilientBufferDegradation(t *testing.T) {
	const chunkLen = 500
	src := workload.Generate(workload.Random, 4_000, 3)
	chunkBytes := units.BytesForElements(chunkLen)
	heap := memkind.NewHeap(chunkBytes, units.GiB)
	reg := telemetry.NewRegistry()
	res := telemetry.NewResilience(reg)
	out, stats, err := RunRealResilient(context.Background(), src, chunkLen, 2, 3, RealOptions{
		Staging: memkind.Staging{Heap: heap}, Resilience: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, src, out, chunkLen)
	if stats.Buffers != 3 || stats.HBWBuffers != 1 || stats.DegradedBuffers != 2 {
		t.Errorf("stats = %+v, want 1 HBW + 2 degraded of 3", stats)
	}
	if got := res.Degradations(); got != 2 {
		t.Errorf("telemetry degradations = %d, want 2", got)
	}
	if heap.HBWInUse() != 0 || heap.DDRInUse() != 0 {
		t.Errorf("heap leak: hbw=%v ddr=%v", heap.HBWInUse(), heap.DDRInUse())
	}
}

// TestResilientBufferDrop: when both levels are too small for a buffer,
// the pipeline narrows instead of failing — until zero buffers remain,
// which is an error.
func TestResilientBufferDrop(t *testing.T) {
	const chunkLen = 500
	src := workload.Generate(workload.Random, 2_000, 5)
	chunkBytes := units.BytesForElements(chunkLen)
	// Room for one buffer in HBW, one in DDR; the third fits nowhere.
	heap := memkind.NewHeap(chunkBytes, chunkBytes)
	out, stats, err := RunRealResilient(context.Background(), src, chunkLen, 1, 3, RealOptions{Staging: memkind.Staging{Heap: heap}})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, src, out, chunkLen)
	if stats.Buffers != 2 || stats.DroppedBuffers != 1 {
		t.Errorf("stats = %+v, want 2 placed / 1 dropped", stats)
	}

	// Nothing fits anywhere: that is a hard error.
	empty := memkind.NewHeap(0, 0)
	_, _, err = RunRealResilient(context.Background(), src, chunkLen, 1, 3, RealOptions{Staging: memkind.Staging{Heap: empty}})
	if err == nil {
		t.Fatal("zero placeable buffers must fail")
	}
}

// TestResilientInjectedBufferFaults: injected allocation failures degrade
// the targeted buffers even without a simulated heap.
func TestResilientInjectedBufferFaults(t *testing.T) {
	const chunkLen = 400
	src := workload.Generate(workload.Random, 2_000, 7)
	reg := telemetry.NewRegistry()
	res := telemetry.NewResilience(reg)
	out, stats, err := RunRealResilient(context.Background(), src, chunkLen, 1, 3, RealOptions{
		Staging: memkind.Staging{Faults: failBuffers{0: true, 2: true}}, Resilience: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, src, out, chunkLen)
	if stats.Buffers != 3 || stats.DegradedBuffers != 2 || stats.AllocFailures != 2 {
		t.Errorf("stats = %+v, want 2 of 3 degraded", stats)
	}
	if got := res.Degradations(); got != 2 {
		t.Errorf("telemetry degradations = %d, want 2", got)
	}
}

// TestResilientRetryAndOutcome: a transient compute fault is retried and
// the run completes; an exhausted budget aborts with the chunk failure.
func TestResilientRetryAndOutcome(t *testing.T) {
	const chunkLen = 400
	src := workload.Generate(workload.Random, 2_000, 9)
	reg := telemetry.NewRegistry()
	res := telemetry.NewResilience(reg)
	fails := 0
	out, stats, err := RunRealResilient(context.Background(), src, chunkLen, 1, 3, RealOptions{
		Resilience: res,
		Policy: exec.Policy{Retry: exec.DefaultRetry, Wrap: func(s exec.Stages) exec.Stages {
			inner := s.Compute
			s.Compute = func(i int, buf []int64) error {
				if i == 2 && fails < 2 {
					fails++
					return errors.New("transient")
				}
				return inner(i, buf)
			}
			return s
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, src, out, chunkLen)
	if stats.Buffers != 3 {
		t.Errorf("stats = %+v, want 3 buffers", stats)
	}
	if res.Retries() != 2 || res.Completions() != 1 {
		t.Errorf("retries/completions = %d/%d, want 2/1", res.Retries(), res.Completions())
	}

	// Exhaust the budget: the same fault with no retries aborts.
	_, _, err = RunRealResilient(context.Background(), src, chunkLen, 1, 3, RealOptions{
		Resilience: res,
		Policy: exec.Policy{Wrap: func(s exec.Stages) exec.Stages {
			s.Compute = func(i int, buf []int64) error { return errors.New("hard") }
			return s
		}},
	})
	var ce *exec.ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want ChunkError", err)
	}
	if res.Aborts() != 1 {
		t.Errorf("aborts = %d, want 1", res.Aborts())
	}
}

// TestResilientCancellation: a cancelled benchmark returns promptly with
// context.Canceled and frees its buffer placements.
func TestResilientCancellation(t *testing.T) {
	const chunkLen = 400
	src := workload.Generate(workload.Random, 4_000, 11)
	heap := memkind.NewHeap(units.GiB, units.GiB)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err := RunRealResilient(ctx, src, chunkLen, 1, 3, RealOptions{
		Staging: memkind.Staging{Heap: heap},
		Policy: exec.Policy{Wrap: func(s exec.Stages) exec.Stages {
			inner := s.Compute
			s.Compute = func(i int, buf []int64) error {
				if i == 4 {
					cancel()
				}
				return inner(i, buf)
			}
			return s
		}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if heap.HBWInUse() != 0 || heap.DDRInUse() != 0 {
		t.Errorf("cancelled run leaked placements: hbw=%v ddr=%v", heap.HBWInUse(), heap.DDRInUse())
	}
}
