package exec_test

// Cancellation race tests (external package: they cross-check telemetry
// against counters, and telemetry sits above exec). A cancelled pipeline
// must return promptly with the context's error, leak no goroutines, and
// leave the observability record internally consistent no matter where in
// the pipeline the cancellation lands.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

func cancelLeakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("goroutine leak after cancellation: %d at start, %d now",
					base, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestCancellationRaces(t *testing.T) {
	const (
		n        = 8_000
		chunkLen = 500
	)
	numChunks := n / chunkLen
	cases := []struct {
		name    string
		stage   exec.Stage
		atChunk int
	}{
		{"mid-copy-in", exec.StageCopyIn, numChunks / 2},
		{"mid-compute", exec.StageCompute, numChunks / 2},
		{"after-last-chunk-staged", exec.StageCopyIn, numChunks - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer cancelLeakCheck(t)()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			src := workload.Generate(workload.Random, n, 41)
			dst := make([]int64, n)
			s := stagedIncrement(src, dst, chunkLen, 1)
			// Trigger the cancellation from inside the chosen stage at the
			// chosen chunk — the stage itself completes, the pipeline must
			// then unwind.
			switch tc.stage {
			case exec.StageCopyIn:
				in := s.CopyIn
				s.CopyIn = func(i int, buf []int64) error {
					err := in(i, buf)
					if i == tc.atChunk {
						cancel()
					}
					return err
				}
			case exec.StageCompute:
				comp := s.Compute
				s.Compute = func(i int, buf []int64) error {
					err := comp(i, buf)
					if i == tc.atChunk {
						cancel()
					}
					return err
				}
			}
			rec := telemetry.NewRecorder()
			inst, counters := exec.Instrument(s, 16)
			inst.Observer = rec

			done := make(chan error, 1)
			go func() { done <- exec.RunContext(ctx, inst, 3) }()
			var err error
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled pipeline did not return promptly")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}

			// Observability consistency: telemetry byte totals must equal
			// the counters exactly — both account per attempt, and a
			// cancelled stage emits either both records or neither.
			got := rec.BytesByStage()
			if got[exec.StageCopyIn] != counters.CopyInBytes() {
				t.Errorf("copy-in bytes: telemetry %d, counters %d", got[exec.StageCopyIn], counters.CopyInBytes())
			}
			if got[exec.StageCompute] != counters.ComputeBytes() {
				t.Errorf("compute bytes: telemetry %d, counters %d", got[exec.StageCompute], counters.ComputeBytes())
			}
			if got[exec.StageCopyOut] != counters.CopyOutBytes() {
				t.Errorf("copy-out bytes: telemetry %d, counters %d", got[exec.StageCopyOut], counters.CopyOutBytes())
			}

			// Pipeline monotonicity survives cancellation: a chunk can
			// only reach a stage if it passed the previous one.
			seen := map[exec.Stage]map[int]bool{}
			for _, sp := range rec.Spans() {
				if sp.Dur < 0 {
					t.Errorf("negative span duration: %+v", sp)
				}
				if seen[sp.Stage] == nil {
					seen[sp.Stage] = map[int]bool{}
				}
				seen[sp.Stage][sp.Chunk] = true
			}
			for c := range seen[exec.StageCompute] {
				if !seen[exec.StageCopyIn][c] {
					t.Errorf("chunk %d computed without copy-in", c)
				}
			}
			for c := range seen[exec.StageCopyOut] {
				if !seen[exec.StageCompute][c] {
					t.Errorf("chunk %d copied out without compute", c)
				}
			}
		})
	}
}

// TestCancelDuringBackoff: a pipeline sleeping out a retry backoff must
// wake immediately on cancellation instead of finishing the sleep.
func TestCancelDuringBackoff(t *testing.T) {
	defer cancelLeakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := workload.Generate(workload.Random, 1_000, 43)
	dst := make([]int64, len(src))
	s := stagedIncrement(src, dst, 250, 1)
	comp := s.Compute
	s.Compute = func(i int, buf []int64) error {
		if i == 1 {
			cancel() // fail and cancel: the backoff sleep must be cut short
			return errors.New("boom")
		}
		return comp(i, buf)
	}
	s.Retry = exec.RetryPolicy{MaxAttempts: 5, BaseDelay: 30 * time.Second}
	start := time.Now()
	err := exec.RunContext(ctx, s, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation waited out the backoff: %v", elapsed)
	}
}

// TestCancelWaitsForRunningStage: cancellation never abandons a stage
// function mid-run. A cancelled RunContext returns only after the attempt
// it interrupted has returned, and only then are the staging buffers back
// in the pool, so no stage can still be writing one a later Get hands out.
// Both run shapes are held to it: staged (three stage goroutines) and
// compute-only (the caller's goroutine).
func TestCancelWaitsForRunningStage(t *testing.T) {
	for _, staged := range []bool{true, false} {
		name := "compute-only"
		if staged {
			name = "staged"
		}
		t.Run(name, func(t *testing.T) {
			defer cancelLeakCheck(t)()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pool := mem.NewSlicePool()
			src := workload.Generate(workload.Random, 1_000, 47)
			dst := make([]int64, len(src))
			s := stagedIncrement(src, dst, 250, 1)
			if !staged {
				s.CopyIn, s.CopyOut = nil, nil
			}
			s.Pool = pool
			s.Retry = exec.RetryPolicy{MaxAttempts: 3}
			entered, release := make(chan struct{}), make(chan struct{})
			var running atomic.Bool
			comp := s.Compute
			s.Compute = func(i int, buf []int64) error {
				if i == 1 {
					running.Store(true)
					defer running.Store(false)
					close(entered)
					<-release
				}
				return comp(i, buf)
			}

			done := make(chan error, 1)
			go func() { done <- exec.RunContext(ctx, s, 3) }()
			<-entered
			cancel()
			select {
			case err := <-done:
				close(release)
				t.Fatalf("RunContext returned %v while chunk 1's compute was still running", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			var err error
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled pipeline did not return once its stage did")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
			if running.Load() {
				t.Fatal("RunContext returned before the compute attempt did")
			}
			if fp, free := pool.FootprintBytes(), pool.FreeBytes(); fp != free {
				t.Fatalf("pool footprint %d after the run, freelists hold %d", fp, free)
			}
		})
	}
}
