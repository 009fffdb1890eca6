package mlmsort

import (
	"context"
	"errors"
	"testing"

	"knlmlm/internal/exec"
	"knlmlm/internal/memkind"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// failChunks is a deterministic AllocFaults stub.
type failChunks map[int]bool

func (f failChunks) FailAlloc(i int) bool { return f[i] }

func resilienceSink() (*telemetry.Registry, *telemetry.Resilience) {
	reg := telemetry.NewRegistry()
	return reg, telemetry.NewResilience(reg)
}

// TestResilientGenuineExhaustion: a heap smaller than one megachunk fails
// every HBW_POLICY_BIND staging allocation, so every megachunk must
// degrade to the DDR-direct flow — and the sort must still be correct.
func TestResilientGenuineExhaustion(t *testing.T) {
	const n, mc = 40_000, 10_000
	xs := workload.Generate(workload.Random, n, 3)
	want := workload.Fingerprint(xs)
	// Capacity below one megachunk's 80 KB footprint: every bind fails.
	heap := memkind.NewHeap(units.BytesForElements(mc)-1, units.GiB)
	_, res := resilienceSink()
	stats, err := RunRealResilient(context.Background(), MLMSort, xs, 4, mc, RealOptions{
		Staging: memkind.Staging{Heap: heap}, Resilience: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) || workload.Fingerprint(xs) != want {
		t.Fatal("degraded run corrupted the data")
	}
	if stats.Megachunks != 4 || stats.Degraded != 4 || stats.Staged != 0 {
		t.Errorf("stats = %+v, want 4 megachunks all degraded", stats)
	}
	if stats.AllocFailures < 4 {
		t.Errorf("alloc failures = %d, want >= 4", stats.AllocFailures)
	}
	if got := res.Degradations(); got != 4 {
		t.Errorf("telemetry degradations = %d, want 4", got)
	}
	if heap.HBWInUse() != 0 {
		t.Errorf("heap leak: %v still in use", heap.HBWInUse())
	}
}

// TestResilientAmpleHeap: with room for every staged buffer, nothing
// degrades and the heap is fully released afterwards.
func TestResilientAmpleHeap(t *testing.T) {
	const n, mc = 40_000, 10_000
	xs := workload.Generate(workload.Reverse, n, 1)
	heap := memkind.NewHeap(units.GiB, units.GiB)
	stats, err := RunRealResilient(context.Background(), MLMHybrid, xs, 4, mc, RealOptions{
		Staging: memkind.Staging{Heap: heap}, Buffers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) {
		t.Fatal("not sorted")
	}
	if stats.Degraded != 0 || stats.Staged != 4 || stats.AllocFailures != 0 {
		t.Errorf("stats = %+v, want all 4 staged", stats)
	}
	if heap.HBWInUse() != 0 {
		t.Errorf("heap leak: %v still in use", heap.HBWInUse())
	}
}

// TestResilientInjectedAllocFaults: injected allocation failures degrade
// exactly the targeted megachunks.
func TestResilientInjectedAllocFaults(t *testing.T) {
	const n, mc = 40_000, 10_000
	xs := workload.Generate(workload.Random, n, 7)
	want := workload.Fingerprint(xs)
	heap := memkind.NewHeap(units.GiB, units.GiB)
	_, res := resilienceSink()
	stats, err := RunRealResilient(context.Background(), MLMSort, xs, 4, mc, RealOptions{
		Staging: memkind.Staging{Heap: heap, Faults: failChunks{1: true, 3: true}}, Resilience: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) || workload.Fingerprint(xs) != want {
		t.Fatal("run with injected alloc faults corrupted the data")
	}
	if stats.Degraded != 2 || stats.Staged != 2 {
		t.Errorf("stats = %+v, want 2 degraded / 2 staged", stats)
	}
	if got := res.Degradations(); got != 2 {
		t.Errorf("telemetry degradations = %d, want 2", got)
	}
	if got := res.Completions(); got != 1 {
		t.Errorf("completions = %d, want 1", got)
	}
}

// TestResilientRetry: a transient compute fault is retried away; the
// retry is visible in the resilience counters and the sort is correct.
func TestResilientRetry(t *testing.T) {
	const n, mc = 20_000, 5_000
	xs := workload.Generate(workload.Random, n, 11)
	_, res := resilienceSink()
	failed := false
	stats, err := RunRealResilient(context.Background(), MLMSort, xs, 4, mc, RealOptions{
		Resilience: res,
		Policy: exec.Policy{Retry: exec.DefaultRetry, Wrap: func(s exec.Stages) exec.Stages {
			inner := s.Compute
			s.Compute = func(i int, buf []int64) error {
				if i == 1 && !failed {
					failed = true
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
	if !workload.IsSorted(xs) {
		t.Fatal("not sorted")
	}
	if stats.Staged != 4 {
		t.Errorf("stats = %+v, want 4 staged", stats)
	}
	if res.Retries() != 1 || res.Failures() != 0 {
		t.Errorf("retries/failures = %d/%d, want 1/0", res.Retries(), res.Failures())
	}
	if res.Completions() != 1 || res.Aborts() != 0 {
		t.Errorf("completions/aborts = %d/%d, want 1/0", res.Completions(), res.Aborts())
	}
}

// TestResilientCancellation: cancelling mid-run returns context.Canceled,
// releases every staging allocation, and books a cancellation outcome.
func TestResilientCancellation(t *testing.T) {
	const n, mc = 40_000, 5_000
	xs := workload.Generate(workload.Random, n, 13)
	heap := memkind.NewHeap(units.GiB, units.GiB)
	_, res := resilienceSink()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunRealResilient(ctx, MLMSort, xs, 4, mc, RealOptions{
		Staging: memkind.Staging{Heap: heap}, Resilience: res, Buffers: 3,
		Policy: exec.Policy{Wrap: func(s exec.Stages) exec.Stages {
			inner := s.Compute
			s.Compute = func(i int, buf []int64) error {
				if i == 2 {
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
	if heap.HBWInUse() != 0 {
		t.Errorf("cancelled run leaked %v of staging heap", heap.HBWInUse())
	}
	if res.Cancellations() != 1 {
		t.Errorf("cancellations = %d, want 1", res.Cancellations())
	}
}

// TestResilientAbortSurfacesChunkError: with no retry budget, a stage
// failure aborts with a ChunkError and books an abort outcome.
func TestResilientAbortSurfacesChunkError(t *testing.T) {
	const n, mc = 20_000, 5_000
	xs := workload.Generate(workload.Random, n, 17)
	_, res := resilienceSink()
	boom := errors.New("boom")
	_, err := RunRealResilient(context.Background(), MLMSort, xs, 4, mc, RealOptions{
		Resilience: res,
		Policy: exec.Policy{Wrap: func(s exec.Stages) exec.Stages {
			inner := s.CopyOut
			s.CopyOut = func(i int, buf []int64) error {
				if i == 1 {
					return boom
				}
				return inner(i, buf)
			}
			return s
		}},
	})
	var ce *exec.ChunkError
	if !errors.As(err, &ce) || !errors.Is(err, boom) {
		t.Fatalf("got %v, want ChunkError wrapping boom", err)
	}
	if ce.Stage != exec.StageCopyOut || ce.Chunk != 1 {
		t.Errorf("failed at %v chunk %d, want copy-out chunk 1", ce.Stage, ce.Chunk)
	}
	if res.Aborts() != 1 {
		t.Errorf("aborts = %d, want 1", res.Aborts())
	}
}
