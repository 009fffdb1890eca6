package mergebench

import (
	"context"
	"errors"
	"sort"
	"testing"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

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

// TestResilientRetryAndOutcome: a transient compute fault is retried and
// the run completes; an exhausted budget aborts with the chunk failure.
func TestResilientRetryAndOutcome(t *testing.T) {
	const chunkLen = 400
	src := workload.Generate(workload.Random, 2_000, 9)
	reg := telemetry.NewRegistry()
	res := telemetry.NewResilience(reg)
	fails := 0
	out, err := RunRealResilient(context.Background(), src, chunkLen, 1, 3, RealOptions{
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
	if res.Retries() != 2 || res.Completions() != 1 {
		t.Errorf("retries/completions = %d/%d, want 2/1", res.Retries(), res.Completions())
	}

	// Exhaust the budget: the same fault with no retries aborts.
	_, err = RunRealResilient(context.Background(), src, chunkLen, 1, 3, RealOptions{
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
// context.Canceled and puts every buffer back into the shared pool.
func TestResilientCancellation(t *testing.T) {
	const chunkLen = 400
	src := workload.Generate(workload.Random, 4_000, 11)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunRealResilient(ctx, src, chunkLen, 1, 3, RealOptions{
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
	// No other test of this package runs beside this one, so the shared
	// pool is quiescent: every slice it handed out is back.
	if fp, free := mem.Pool.FootprintBytes(), mem.Pool.FreeBytes(); fp != free {
		t.Errorf("cancelled run left %d of the pool's %d bytes outstanding", fp-free, fp)
	}
}
