package mlmsort

import (
	"context"
	"errors"
	"testing"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

func resilienceSink() (*telemetry.Registry, *telemetry.Resilience) {
	reg := telemetry.NewRegistry()
	return reg, telemetry.NewResilience(reg)
}

// poolSettled fails t unless every slice pool handed out is back on its
// freelists: the MCDRAM ledger at zero.
func poolSettled(t *testing.T, pool *mem.SlicePool) {
	t.Helper()
	if fp, free := pool.FootprintBytes(), pool.FreeBytes(); fp != free {
		t.Errorf("pool holds %d bytes, %d of them free: a buffer is outstanding", fp, free)
	}
}

// TestResilientGenuineExhaustion: a pool budget smaller than one
// megachunk refuses the sort scratch and every staging buffer, so each is
// allocated unpooled (in DDR) — and the sort must still be correct.
func TestResilientGenuineExhaustion(t *testing.T) {
	const n, mc = 40_000, 10_000
	xs := workload.Generate(workload.Random, n, 3)
	want := workload.Fingerprint(xs)
	// Budget below one megachunk's 80 KB footprint: every Get is refused.
	pool := mem.NewSlicePoolBudget(int64(units.BytesForElements(mc)) - 1)
	_, res := resilienceSink()
	stats, err := RunRealResilient(context.Background(), MLMSort, xs, 4, mc, RealOptions{
		Pool: pool, Resilience: res, Buffers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) || workload.Fingerprint(xs) != want {
		t.Fatal("run on refused buffers corrupted the data")
	}
	if stats.Megachunks != 4 {
		t.Errorf("stats = %+v, want 4 megachunks", stats)
	}
	if st := pool.Stats(); st.Refusals < 4 || st.Refusals != st.Gets {
		t.Errorf("pool stats = %+v, want every Get (scratch and 3 buffers) refused", st)
	}
	if pool.FootprintBytes() != 0 {
		t.Errorf("refusing pool holds %d bytes", pool.FootprintBytes())
	}
}

// TestResilientAmpleHeap: with budget for the scratch and every staging
// buffer, nothing is refused and every buffer is back in the pool
// afterwards.
func TestResilientAmpleHeap(t *testing.T) {
	const n, mc = 40_000, 10_000
	xs := workload.Generate(workload.Reverse, n, 1)
	pool := mem.NewSlicePoolBudget(int64(units.GiB))
	stats, err := RunRealResilient(context.Background(), MLMHybrid, xs, 4, mc, RealOptions{
		Pool: pool, Buffers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) {
		t.Fatal("not sorted")
	}
	if stats.Megachunks != 4 || pool.Stats().Refusals != 0 {
		t.Errorf("stats = %+v, pool %+v; want 4 megachunks, no refusal", stats, pool.Stats())
	}
	poolSettled(t, pool)
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
	if stats.Megachunks != 4 {
		t.Errorf("stats = %+v, want 4 megachunks", stats)
	}
	if res.Retries() != 1 || res.Failures() != 0 {
		t.Errorf("retries/failures = %d/%d, want 1/0", res.Retries(), res.Failures())
	}
	if res.Completions() != 1 || res.Aborts() != 0 {
		t.Errorf("completions/aborts = %d/%d, want 1/0", res.Completions(), res.Aborts())
	}
}

// TestResilientCancellation: cancelling mid-run returns context.Canceled,
// puts every staging buffer back, and books a cancellation outcome.
func TestResilientCancellation(t *testing.T) {
	const n, mc = 40_000, 5_000
	xs := workload.Generate(workload.Random, n, 13)
	pool := mem.NewSlicePoolBudget(int64(units.GiB))
	_, res := resilienceSink()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunRealResilient(ctx, MLMSort, xs, 4, mc, RealOptions{
		Pool: pool, Resilience: res, Buffers: 3,
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
	poolSettled(t, pool)
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
