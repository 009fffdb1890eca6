package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knlmlm/internal/workload"
)

// leakCheck snapshots the goroutine count and returns a closer that fails
// the test if the count has not settled back within two seconds — a
// goleak-style guard without the dependency.
func leakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d at start, %d after run\n%s",
					base, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// failingStages is chunkedDouble with one stage rigged to fail on a given
// chunk a given number of times.
type rig struct {
	stage     Stage
	chunk     int
	failures  int32 // remaining injected failures
	mode      string
	latency   time.Duration
	failCount atomic.Int32
}

func (r *rig) maybeFail(stage Stage, i int) error {
	if stage != r.stage || i != r.chunk {
		return nil
	}
	if r.latency > 0 {
		time.Sleep(r.latency)
	}
	if atomic.AddInt32(&r.failures, -1) < 0 {
		return nil
	}
	r.failCount.Add(1)
	if r.mode == "panic" {
		panic(fmt.Sprintf("rigged panic at %v chunk %d", stage, i))
	}
	return fmt.Errorf("rigged %v failure at chunk %d", stage, i)
}

func riggedStages(src, dst []int64, chunkLen int, r *rig) Stages {
	s := chunkedDouble(src, dst, chunkLen)
	in, comp, out := s.CopyIn, s.Compute, s.CopyOut
	s.CopyIn = func(i int, buf []int64) error {
		if err := r.maybeFail(StageCopyIn, i); err != nil {
			return err
		}
		return in(i, buf)
	}
	s.Compute = func(i int, buf []int64) error {
		if err := r.maybeFail(StageCompute, i); err != nil {
			return err
		}
		return comp(i, buf)
	}
	s.CopyOut = func(i int, buf []int64) error {
		if err := r.maybeFail(StageCopyOut, i); err != nil {
			return err
		}
		return out(i, buf)
	}
	return s
}

// TestStageErrorAbortsPromptly is the wedge regression test: before the
// resilience rework, a stage goroutine that stopped mid-run stranded the
// other two stage goroutines on their channels forever. Now a failing
// stage must abort the whole pipeline promptly, return a descriptive
// ChunkError, close the inter-stage channels exactly once (a double close
// would panic), and leak no goroutines. Each case runs the same pipeline
// twice to prove the abort path is re-entrant.
func TestStageErrorAbortsPromptly(t *testing.T) {
	for _, stage := range []Stage{StageCopyIn, StageCompute, StageCopyOut} {
		t.Run(stage.String(), func(t *testing.T) {
			defer leakCheck(t)()
			for round := 0; round < 2; round++ {
				src := workload.Generate(workload.Random, 5_000, 11)
				dst := make([]int64, len(src))
				r := &rig{stage: stage, chunk: 3, failures: 1 << 30, mode: "error"}
				done := make(chan error, 1)
				go func() { done <- Run(riggedStages(src, dst, 500, r), 3) }()
				select {
				case err := <-done:
					var ce *ChunkError
					if !errors.As(err, &ce) {
						t.Fatalf("round %d: got %v, want ChunkError", round, err)
					}
					if ce.Stage != stage || ce.Chunk != 3 {
						t.Errorf("round %d: failed at %v chunk %d, want %v chunk 3",
							round, ce.Stage, ce.Chunk, stage)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: pipeline wedged on %v failure", round, stage)
				}
			}
		})
	}
}

// TestStagePanicBecomesChunkFailure: a panicking stage must not take down
// the process; it surfaces as a ChunkError wrapping a PanicError.
func TestStagePanicBecomesChunkFailure(t *testing.T) {
	defer leakCheck(t)()
	src := workload.Generate(workload.Random, 2_000, 7)
	dst := make([]int64, len(src))
	r := &rig{stage: StageCompute, chunk: 1, failures: 1 << 30, mode: "panic"}
	err := Run(riggedStages(src, dst, 400, r), 3)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want wrapped PanicError", err)
	}
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Stage != StageCompute {
		t.Fatalf("got %v, want ChunkError at compute", err)
	}
}

// TestRetryTransientFaults: transient failures within the retry budget
// must not abort the run, and the output must still be exactly right.
// Every stage and both failure modes are exercised.
func TestRetryTransientFaults(t *testing.T) {
	for _, stage := range []Stage{StageCopyIn, StageCompute, StageCopyOut} {
		for _, mode := range []string{"error", "panic"} {
			t.Run(stage.String()+"/"+mode, func(t *testing.T) {
				defer leakCheck(t)()
				src := workload.Generate(workload.Random, 5_000, 13)
				dst := make([]int64, len(src))
				r := &rig{stage: stage, chunk: 2, failures: 2, mode: mode}
				s := riggedStages(src, dst, 500, r)
				s.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
				var events []RetryEvent
				var mu sync.Mutex
				s.OnRetry = func(e RetryEvent) {
					mu.Lock()
					events = append(events, e)
					mu.Unlock()
				}
				if err := Run(s, 3); err != nil {
					t.Fatalf("retry budget should absorb 2 failures: %v", err)
				}
				for i := range src {
					if dst[i] != 2*src[i] {
						t.Fatalf("dst[%d] = %d, want %d", i, dst[i], 2*src[i])
					}
				}
				if len(events) != 2 {
					t.Errorf("OnRetry fired %d times, want 2", len(events))
				}
				for _, e := range events {
					if e.Final {
						t.Errorf("non-final failure reported Final: %+v", e)
					}
					if e.Stage != stage || e.Chunk != 2 {
						t.Errorf("event at %v chunk %d, want %v chunk 2", e.Stage, e.Chunk, stage)
					}
				}
			})
		}
	}
}

// TestRetryBudgetExhaustedIsFinal: one more failure than the budget
// aborts, and the last OnRetry event is marked Final.
func TestRetryBudgetExhaustedIsFinal(t *testing.T) {
	defer leakCheck(t)()
	src := workload.Generate(workload.Random, 1_000, 5)
	dst := make([]int64, len(src))
	r := &rig{stage: StageCopyOut, chunk: 0, failures: 1 << 30, mode: "error"}
	s := riggedStages(src, dst, 250, r)
	s.Retry = RetryPolicy{MaxAttempts: 3}
	var finals, total int
	var mu sync.Mutex
	s.OnRetry = func(e RetryEvent) {
		mu.Lock()
		total++
		if e.Final {
			finals++
		}
		mu.Unlock()
	}
	err := Run(s, 3)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want ChunkError", err)
	}
	if ce.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", ce.Attempts)
	}
	if total != 3 || finals != 1 {
		t.Errorf("OnRetry: %d events (%d final), want 3 (1 final)", total, finals)
	}
}

// TestComputeRetryRestages: a compute attempt that corrupts its buffer
// before failing must not poison the retry — the pipeline re-runs CopyIn
// so the retried compute starts from clean staged data.
func TestComputeRetryRestages(t *testing.T) {
	defer leakCheck(t)()
	src := workload.Generate(workload.Random, 3_000, 19)
	dst := make([]int64, len(src))
	s := chunkedDouble(src, dst, 300)
	comp := s.Compute
	var poisoned atomic.Bool
	s.Compute = func(i int, buf []int64) error {
		if i == 4 && poisoned.CompareAndSwap(false, true) {
			for j := range buf {
				buf[j] = -999 // trash the staged data, then fail
			}
			return errors.New("compute died mid-transform")
		}
		return comp(i, buf)
	}
	s.Retry = RetryPolicy{MaxAttempts: 2}
	if err := Run(s, 3); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != 2*src[i] {
			t.Fatalf("dst[%d] = %d, want %d — retry ran over corrupted staging", i, dst[i], 2*src[i])
		}
	}
}

// TestChunkDeadlineCopyInRetries: a copy-in overrunning its deadline is
// abandoned and retried on a fresh buffer; the abandoned attempt's late
// writes must not corrupt the output.
func TestChunkDeadlineCopyInRetries(t *testing.T) {
	defer leakCheck(t)()
	src := workload.Generate(workload.Random, 2_000, 23)
	dst := make([]int64, len(src))
	s := chunkedDouble(src, dst, 400)
	in := s.CopyIn
	var slow atomic.Bool
	s.CopyIn = func(i int, buf []int64) error {
		if i == 2 && slow.CompareAndSwap(false, true) {
			time.Sleep(80 * time.Millisecond) // blow the deadline once
		}
		return in(i, buf)
	}
	s.ChunkTimeout = 20 * time.Millisecond
	s.Retry = RetryPolicy{MaxAttempts: 2}
	if err := Run(s, 3); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != 2*src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], 2*src[i])
		}
	}
	// Let the abandoned attempt finish before the leak check runs.
	time.Sleep(100 * time.Millisecond)
}

// TestChunkDeadlineComputeIsTerminal: deadline overruns on compute are
// not retried (the abandoned attempt may still be mutating state), even
// with retry budget left.
func TestChunkDeadlineComputeIsTerminal(t *testing.T) {
	defer leakCheck(t)()
	src := workload.Generate(workload.Random, 1_000, 29)
	dst := make([]int64, len(src))
	s := chunkedDouble(src, dst, 250)
	comp := s.Compute
	s.Compute = func(i int, buf []int64) error {
		if i == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		return comp(i, buf)
	}
	s.ChunkTimeout = 15 * time.Millisecond
	s.Retry = RetryPolicy{MaxAttempts: 5}
	err := Run(s, 3)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want ChunkError", err)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline cause", err)
	}
	if ce.Attempts != 1 {
		t.Errorf("compute deadline was retried %d times; must be terminal", ce.Attempts-1)
	}
	time.Sleep(80 * time.Millisecond) // drain the abandoned attempt
}

// TestBackoffSchedule pins the policy arithmetic: doubling from BaseDelay,
// capped at MaxDelay, zero when no base is set.
func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 6 * time.Millisecond}
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		6 * time.Millisecond, 6 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (RetryPolicy{}).Backoff(3); got != 0 {
		t.Errorf("zero policy backoff = %v, want 0", got)
	}
	// Overflow guard: absurd retry counts saturate instead of going
	// negative.
	if got := (RetryPolicy{BaseDelay: time.Hour}).Backoff(500); got <= 0 {
		t.Errorf("saturating backoff = %v, want positive", got)
	}
}

// TestValidateResilienceKnobs: malformed retry/deadline configuration is
// rejected up front with a descriptive error, not discovered mid-run.
func TestValidateResilienceKnobs(t *testing.T) {
	base := func() Stages {
		return Stages{
			NumChunks: 1,
			ChunkLen:  func(int) int { return 1 },
			Compute:   func(int, []int64) error { return nil },
		}
	}
	cases := []struct {
		name string
		mut  func(*Stages)
	}{
		{"negative max attempts", func(s *Stages) { s.Retry.MaxAttempts = -1 }},
		{"negative base delay", func(s *Stages) { s.Retry.BaseDelay = -time.Second }},
		{"negative max delay", func(s *Stages) { s.Retry.MaxDelay = -time.Second }},
		{"negative chunk timeout", func(s *Stages) { s.ChunkTimeout = -time.Second }},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(&s)
		if err := Run(s, 1); err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

// TestUnstagedComputeRetries: the no-staging path (nil CopyIn) retries a
// failing compute directly.
func TestUnstagedComputeRetries(t *testing.T) {
	defer leakCheck(t)()
	data := workload.Generate(workload.Random, 500, 31)
	var failed atomic.Bool
	s := Stages{
		NumChunks: 5,
		ChunkLen:  func(int) int { return 100 },
		Compute: func(i int, _ []int64) error {
			if i == 3 && failed.CompareAndSwap(false, true) {
				return errors.New("transient")
			}
			for j := i * 100; j < (i+1)*100; j++ {
				data[j]++
			}
			return nil
		},
		Policy: Policy{Retry: RetryPolicy{MaxAttempts: 2}},
	}
	if err := Run(s, 1); err != nil {
		t.Fatal(err)
	}
}

// TestRunContextPreCancelled: an already-cancelled context returns before
// any stage function runs.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	s := Stages{
		NumChunks: 1,
		ChunkLen:  func(int) int { return 1 },
		Compute:   func(int, []int64) error { ran = true; return nil },
	}
	if err := RunContext(ctx, s, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran {
		t.Error("stage ran under a cancelled context")
	}
}
