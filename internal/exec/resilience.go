package exec

import (
	"context"
	"fmt"
	"time"
)

// This file holds the pipeline's failure semantics: typed errors, the
// retry policy, and the retry-event hook. The paper's flat-mode pipeline
// assumes copy-in / compute / copy-out never fail; a production execution
// layer cannot. Failures here are per chunk and per stage: a stage attempt
// that returns an error (or panics) is retried with capped exponential
// backoff, and only when the retry budget is exhausted does the whole
// pipeline abort — cleanly, with every stage goroutine joined.

// PanicError wraps a value recovered from a panicking stage function,
// converting the panic into an ordinary (retryable) chunk failure.
type PanicError struct {
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: stage panicked: %v", e.Value)
}

// ChunkError is the terminal failure of one chunk's stage after its retry
// budget ran out; it is what RunContext returns when the pipeline aborts.
type ChunkError struct {
	Stage    Stage
	Chunk    int
	Attempts int
	Err      error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("exec: %v failed for chunk %d after %d attempt(s): %v",
		e.Stage, e.Chunk, e.Attempts, e.Err)
}

// Unwrap exposes the underlying stage error to errors.Is/As.
func (e *ChunkError) Unwrap() error { return e.Err }

// RetryPolicy bounds how a failed chunk stage is retried: up to
// MaxAttempts total attempts, sleeping BaseDelay before the first retry
// and doubling up to MaxDelay between subsequent ones. The zero policy
// means a single attempt (no retries). Backoff sleeps are cancellable:
// a cancelled pipeline never waits out a backoff.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per stage per chunk (the first
	// try included). Zero or one means no retries.
	MaxAttempts int
	// BaseDelay is the sleep before the first retry; each further retry
	// doubles it. Zero retries immediately.
	BaseDelay time.Duration
	// MaxDelay caps the doubled backoff. Zero means uncapped.
	MaxDelay time.Duration
}

// DefaultRetry is a production-shaped policy: three attempts with a
// millisecond-scale capped backoff.
var DefaultRetry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}

// attempts resolves the policy's total attempt budget (always >= 1).
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// validate rejects nonsensical policies.
func (p RetryPolicy) validate() error {
	switch {
	case p.MaxAttempts < 0:
		return fmt.Errorf("exec: retry MaxAttempts %d is negative", p.MaxAttempts)
	case p.BaseDelay < 0:
		return fmt.Errorf("exec: retry BaseDelay %v is negative", p.BaseDelay)
	case p.MaxDelay < 0:
		return fmt.Errorf("exec: retry MaxDelay %v is negative", p.MaxDelay)
	}
	return nil
}

// Backoff reports the sleep before retry number `retry` (1-based: the
// sleep after the retry-th failed attempt).
func (p RetryPolicy) Backoff(retry int) time.Duration {
	if p.BaseDelay <= 0 || retry < 1 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < retry; i++ {
		if d >= maxDuration/2 {
			d = maxDuration
			break
		}
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

const maxDuration = time.Duration(1<<63 - 1)

// RetryEvent reports one failed stage attempt to the OnRetry hook. Final
// marks the attempt that exhausted the budget (the chunk fails and the
// pipeline aborts); otherwise the stage sleeps Backoff and tries again.
// The hook is called from the stage goroutines concurrently and must be
// safe for concurrent use.
type RetryEvent struct {
	Stage   Stage
	Chunk   int
	Attempt int
	Err     error
	Backoff time.Duration
	Final   bool
}

// Policy is how a pipeline run treats failure. It is declared once, here:
// Stages embeds it, and every option struct above exec (mlmsort, mergebench,
// sched) embeds the same type and hands it down whole, so a run's retries
// and wrap cannot differ by the entry point that started it.
type Policy struct {
	// Retry bounds per-chunk stage attempts. The zero value runs each
	// stage once: any failure aborts the pipeline immediately.
	Retry RetryPolicy
	// OnRetry, when non-nil, receives one event per failed stage attempt
	// (Final marks the failure that aborts the pipeline). Called
	// concurrently from the stage goroutines.
	OnRetry func(RetryEvent)
	// Wrap, when non-nil, rewrites the stage set before it runs — the hook
	// the fault injector's Wrap plugs into. RunContext applies it, exactly
	// once per run.
	Wrap func(Stages) Stages
}

// sleepCtx sleeps d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// safeStage invokes one stage function with panic recovery, converting a
// panic into a PanicError so one misbehaving stage cannot take down the
// process (or, worse, silently strand its pipeline). It takes the stage
// arguments directly (no closure) to keep the telemetry-off hot path free
// of per-chunk allocations.
func safeStage(fn func(int, []int64) error, i int, data []int64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p}
		}
	}()
	return fn(i, data)
}
