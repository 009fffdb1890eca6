// Package exec runs chunked, buffered pipelines for real: goroutine worker
// pools execute user-supplied copy-in / compute / copy-out functions over
// actual data, with the same triple-buffer discipline that internal/chunk
// simulates. The execution layer is how the repository proves the MLM
// algorithms *correct*; the simulation layer is how it reproduces the
// paper's *timing*.
//
// The pipeline has first-class failure semantics: stage functions return
// errors, panics are recovered into chunk failures, each stage attempt can
// be bounded by a per-chunk deadline, failed attempts are retried under a
// capped exponential backoff (RetryPolicy), and the whole run accepts a
// context.Context for cancellation. When a chunk's retry budget runs out
// the pipeline aborts cleanly: every stage goroutine is joined, channels
// are closed exactly once, and the returned ChunkError names the stage,
// chunk, and underlying cause.
//
// Host wall-time through this package is meaningless for the paper's
// claims (this is not a KNL); only the data transformations matter.
package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"knlmlm/internal/mem"
)

// Stage identifies one per-chunk pipeline stage for observability. The
// *Wait stages are the times a stage goroutine spent blocked before its
// work could start: copy-in waits for a free buffer, compute waits for a
// staged chunk, copy-out waits for a computed chunk. Wait time is exactly
// the starvation the paper's Section 3.2 model assumes away, which is why
// the telemetry layer records it separately.
type Stage uint8

const (
	StageCopyInWait Stage = iota
	StageCopyIn
	StageComputeWait
	StageCompute
	StageCopyOutWait
	StageCopyOut
	// NumStages is the number of distinct stages (for dense indexing).
	NumStages
)

var stageNames = [NumStages]string{
	"copy-in-wait", "copy-in", "compute-wait", "compute", "copy-out-wait", "copy-out",
}

// String reports the stage's canonical label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// IsWait reports whether the stage is a starvation interval rather than
// productive work.
func (s Stage) IsWait() bool {
	return s == StageCopyInWait || s == StageComputeWait || s == StageCopyOutWait
}

// StageEvent is one observed stage execution: worker ran stage for chunk
// over [Start, End) wall-clock time, moving (or touching) Bytes bytes.
// Wait events carry zero bytes and the chunk the stage was about to
// process. Under retries, each attempt (including failed ones) emits its
// own event; a fault-free run emits exactly one event per stage per chunk.
type StageEvent struct {
	Stage Stage
	Chunk int
	// Worker is the stage goroutine's id within the pipeline
	// (0 copy-in, 1 compute, 2 copy-out in Run's pool structure).
	Worker     int
	Start, End time.Time
	Bytes      int64
}

// Observer receives stage events from a running pipeline. Implementations
// must be safe for concurrent use: the three stage goroutines emit events
// concurrently. A nil Observer on Stages adds zero overhead — the hot
// path takes no timestamps and performs no allocations per chunk.
type Observer interface {
	StageEvent(StageEvent)
}

// Buffer is one staging area handed through the pipeline. Cap is fixed at
// pipeline construction; Data is resliced per chunk.
type Buffer struct {
	Data []int64
	full []int64
}

// Stages supplies the per-chunk work of a pipeline. CopyIn and CopyOut may
// be nil, in which case no staging buffer exists and Compute receives an
// empty one (the in-place variants: MLM-ddr and implicit cache mode operate
// directly on the source array and use only Compute).
//
// Stage functions report failure by returning an error; a panicking stage
// is recovered and treated as an error. A failed attempt is retried under
// Policy.Retry; compute retries on a staged pipeline re-run CopyIn first,
// so the retried compute starts from freshly staged (uncorrupted) data.
type Stages struct {
	// NumChunks is the chunk count; chunks are processed in order.
	NumChunks int
	// ChunkLen reports chunk i's element count (buffers are sized to the
	// largest).
	ChunkLen func(i int) int
	// CopyIn loads chunk i into dst (len == ChunkLen(i)).
	CopyIn func(i int, dst []int64) error
	// Compute transforms chunk i in buf in place (or, with nil CopyIn,
	// operates on whatever storage the caller closed over; buf is empty).
	Compute func(i int, buf []int64) error
	// CopyOut drains chunk i from src to its destination.
	CopyOut func(i int, src []int64) error
	// Observer, when non-nil, receives per-chunk stage events (work and
	// wait spans). Nil means telemetry off: no timestamps are taken and
	// the per-chunk hot path allocates nothing extra.
	Observer Observer
	// TouchedPerElem is the bytes charged per element for the compute
	// stage's telemetry events, matching Instrument's accounting. Zero
	// selects the read+write sweep default (2*8 bytes).
	TouchedPerElem int64
	// Policy is the run's failure policy: retries, the per-attempt
	// deadline, the failed-attempt hook and the stage-set rewrite. It is
	// embedded, so s.Retry, s.ChunkTimeout, s.OnRetry and s.Wrap read and
	// assign as before; a composite literal names it (Policy: ...).
	Policy
	// Pool, when non-nil, supplies the staging buffers' backing arrays and
	// receives them back when the run finishes, so repeated runs (the
	// megachunk loop) reach a steady state with no per-run buffer
	// allocations. Buffers abandoned to a timed-out stage attempt are
	// never returned — the rogue goroutine may still be writing them —
	// but they are written off via Pool.Forget so a budgeted pool's
	// footprint does not ratchet up as abandonments accumulate.
	Pool *mem.SlicePool
}

// touchedPerElem resolves the compute-stage byte attribution.
func (s *Stages) touchedPerElem() int64 {
	if s.TouchedPerElem != 0 {
		return s.TouchedPerElem
	}
	return 16 // one read + one write of an int64 key
}

// Validate reports whether the stage set is runnable, catching up front
// the configurations that would otherwise deadlock or panic mid-run.
func (s *Stages) Validate() error {
	if s.NumChunks < 0 {
		return fmt.Errorf("exec: negative chunk count %d", s.NumChunks)
	}
	if s.NumChunks > 0 && s.ChunkLen == nil {
		return fmt.Errorf("exec: ChunkLen is required")
	}
	if s.Compute == nil {
		return fmt.Errorf("exec: Compute stage is required")
	}
	if s.CopyIn == nil && s.CopyOut != nil {
		return fmt.Errorf("exec: CopyOut without CopyIn is not a supported pipeline shape")
	}
	if err := s.Retry.validate(); err != nil {
		return err
	}
	if s.ChunkTimeout < 0 {
		return fmt.Errorf("exec: negative chunk timeout %v", s.ChunkTimeout)
	}
	return nil
}

// Run executes the pipeline with the given number of staging buffers
// (>= 1; the paper's flat-mode buffering uses 3). Stages for different
// chunks overlap exactly as in the simulated async pipeline: each stage
// processes chunks in order, one at a time, and a chunk occupies one buffer
// from its copy-in until its last stage finishes.
func Run(s Stages, buffers int) error {
	return RunContext(context.Background(), s, buffers)
}

// item is one staged chunk in flight between stages.
type item struct {
	idx int
	buf *Buffer
}

// runner carries one RunContext invocation's shared state: the first
// failure wins and cancels the run-scoped context, which unblocks every
// stage goroutine.
type runner struct {
	s       *Stages
	obs     Observer
	touched int64
	pool    *mem.SlicePool
	cancel  context.CancelFunc

	mu  sync.Mutex
	err error
}

// newBuffer supplies one staging buffer, pooled when the Stages carry a
// pool and freshly allocated otherwise. A budgeted pool refusing the
// request degrades to an unpooled allocation (mem.SlicePool.GetOrAlloc)
// so the pipeline keeps running; the refusal stays visible in the pool's
// stats.
func (r *runner) newBuffer(n int) *Buffer {
	return &Buffer{full: r.pool.GetOrAlloc(n)}
}

// reclaim returns a buffer's backing array to the pool. Callers must only
// reclaim buffers no stage goroutine can still touch; buffers abandoned to
// timed-out attempts are replaced in runStage and never reach here.
func (r *runner) reclaim(b *Buffer) {
	if r.pool == nil || b == nil || b.full == nil {
		return
	}
	r.pool.Put(b.full)
	b.full, b.Data = nil, nil
}

// fail records the pipeline's first error and cancels the run.
func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

// firstErr reports the recorded abort cause, if any.
func (r *runner) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// RunContext is Run with cancellation: the pipeline stops promptly when
// ctx is cancelled (or its deadline passes) and returns ctx's error. All
// stage goroutines are joined before RunContext returns, in every path —
// success, stage failure, and cancellation — so a finished call never
// leaks goroutines (stage attempts abandoned by ChunkTimeout excepted:
// those drain as soon as the stage function returns).
func RunContext(ctx context.Context, s Stages, buffers int) error {
	if wrap := s.Wrap; wrap != nil {
		// Once per run, here, so no caller has to remember to: retries and
		// compute re-staging below all go through the rewritten stages.
		s.Wrap = nil
		s = wrap(s)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if buffers < 1 {
		return fmt.Errorf("exec: need at least one buffer, got %d", buffers)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.NumChunks == 0 {
		return nil
	}

	maxLen := 0
	for i := 0; i < s.NumChunks; i++ {
		l := s.ChunkLen(i)
		if l < 0 {
			return fmt.Errorf("exec: chunk %d has negative length %d", i, l)
		}
		if l > maxLen {
			maxLen = l
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &runner{s: &s, obs: s.Observer, touched: s.touchedPerElem(), pool: s.Pool, cancel: cancel}

	if s.CopyIn == nil {
		// No staging: compute runs chunk by chunk over caller storage, so
		// nothing is drawn from the pool. The stage is handed an empty
		// buffer; a replacement after an abandoned attempt is as empty.
		b := &Buffer{}
		for i := 0; i < s.NumChunks; i++ {
			if err := runCtx.Err(); err != nil {
				return err
			}
			var err error
			b, err = r.runStage(runCtx, StageCompute, i, 1, b, nil, s.Compute)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
		}
		return ctx.Err()
	}

	// Buffer pool and inter-stage queues. Channel capacities cover every
	// in-flight chunk so stage goroutines never block on sends; receives
	// select against cancellation, so an aborted pipeline unwinds without
	// draining.
	free := make(chan *Buffer, buffers)
	for i := 0; i < buffers; i++ {
		free <- r.newBuffer(maxLen)
	}
	toCompute := make(chan item, s.NumChunks)
	toCopyOut := make(chan item, s.NumChunks)

	var wg sync.WaitGroup
	wg.Add(3)

	go func() { // copy-in pool
		defer wg.Done()
		defer close(toCompute)
		for i := 0; i < s.NumChunks; i++ {
			var t0 time.Time
			if r.obs != nil {
				t0 = time.Now()
			}
			var b *Buffer
			select {
			case b = <-free:
			case <-runCtx.Done():
				return
			}
			if r.obs != nil {
				r.obs.StageEvent(StageEvent{Stage: StageCopyInWait, Chunk: i, Worker: 0, Start: t0, End: time.Now()})
			}
			b.Data = b.full[:s.ChunkLen(i)]
			b, err := r.runStage(runCtx, StageCopyIn, i, 0, b, nil, s.CopyIn)
			if err != nil {
				// runStage returned a buffer no attempt can still touch
				// (abandoned attempts got replacements); recycle it rather
				// than ratcheting the pool's footprint on every abort.
				r.reclaim(b)
				r.fail(err)
				return
			}
			toCompute <- item{i, b}
		}
	}()

	go func() { // compute pool
		defer wg.Done()
		defer close(toCopyOut)
		for {
			var t0 time.Time
			if r.obs != nil {
				t0 = time.Now()
			}
			var it item
			var ok bool
			select {
			case it, ok = <-toCompute:
				if !ok {
					return
				}
			case <-runCtx.Done():
				return
			}
			if r.obs != nil {
				r.obs.StageEvent(StageEvent{Stage: StageComputeWait, Chunk: it.idx, Worker: 1, Start: t0, End: time.Now()})
			}
			// A retried compute re-stages the chunk first: the failed
			// attempt may have left the buffer partially transformed, and
			// re-running a sort (or any non-idempotent kernel) over
			// corrupted data would silently produce wrong output.
			b, err := r.runStage(runCtx, StageCompute, it.idx, 1, it.buf, s.CopyIn, s.Compute)
			if err != nil {
				r.reclaim(b)
				r.fail(err)
				return
			}
			toCopyOut <- item{it.idx, b}
		}
	}()

	go func() { // copy-out pool
		defer wg.Done()
		for {
			var t0 time.Time
			if r.obs != nil {
				t0 = time.Now()
			}
			var it item
			var ok bool
			select {
			case it, ok = <-toCopyOut:
				if !ok {
					return
				}
			case <-runCtx.Done():
				return
			}
			if r.obs != nil {
				r.obs.StageEvent(StageEvent{Stage: StageCopyOutWait, Chunk: it.idx, Worker: 2, Start: t0, End: time.Now()})
			}
			b := it.buf
			if s.CopyOut != nil {
				var err error
				b, err = r.runStage(runCtx, StageCopyOut, it.idx, 2, b, nil, s.CopyOut)
				if err != nil {
					r.reclaim(b)
					r.fail(err)
					return
				}
			}
			free <- b
		}
	}()

	wg.Wait()
	// All stage goroutines are joined: every buffer still referenced by
	// the run's channels is idle and safe to recycle. toCompute/toCopyOut
	// are closed by their producers on every exit path; free never closes.
	if r.pool != nil {
		for it := range toCompute {
			r.reclaim(it.buf)
		}
		for it := range toCopyOut {
			r.reclaim(it.buf)
		}
	drain:
		for {
			select {
			case b := <-free:
				r.reclaim(b)
			default:
				break drain
			}
		}
	}
	if err := r.firstErr(); err != nil {
		// A cancellation observed inside a stage surfaces as the parent
		// context's error, not as a chunk failure.
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return ctx.Err()
		}
		return err
	}
	return ctx.Err()
}

// stageBytes reports the telemetry byte attribution for one stage attempt
// over n elements.
func (r *runner) stageBytes(stage Stage, n int) int64 {
	if stage == StageCompute {
		return int64(n) * r.touched
	}
	return int64(n) * 8
}

// runStage drives one stage's attempt loop for chunk i: panic recovery,
// optional deadline, retries with capped backoff, and buffer replacement
// after an abandoned (timed-out) attempt. prepare, when non-nil, re-primes
// the buffer before each retry attempt (compute retries re-stage via
// CopyIn). It returns the buffer to hand downstream — a fresh one if the
// original was abandoned to a still-running attempt.
func (r *runner) runStage(ctx context.Context, stage Stage, i, worker int, b *Buffer, prepare, fn func(int, []int64) error) (*Buffer, error) {
	attempts := r.s.Retry.attempts()
	for attempt := 1; ; attempt++ {
		run := fn
		if prepare != nil && attempt > 1 {
			p := prepare
			run = func(i int, data []int64) error {
				if err := p(i, data); err != nil {
					return err
				}
				return fn(i, data)
			}
		}
		var t0 time.Time
		if r.obs != nil {
			t0 = time.Now()
		}
		err, abandoned := r.attempt(ctx, i, b.Data, run)
		if r.obs != nil {
			r.obs.StageEvent(StageEvent{
				Stage: stage, Chunk: i, Worker: worker,
				Start: t0, End: time.Now(), Bytes: r.stageBytes(stage, r.s.ChunkLen(i)),
			})
		}
		if err == nil {
			return b, nil
		}
		if abandoned {
			// The timed-out attempt may still be writing the old backing
			// array; withdraw it and continue with a fresh one. The old
			// buffer is deliberately leaked, never pooled — only written
			// off the pool's footprint, so a budgeted pool does not ratchet
			// toward permanent Get refusal as abandonments accumulate.
			r.pool.Forget(b.full)
			nb := r.newBuffer(len(b.full))
			nb.Data = nb.full[:len(b.Data)]
			b = nb
		}
		if cerr := ctx.Err(); cerr != nil {
			return b, cerr
		}
		retryable := attempt < attempts &&
			!(errors.Is(err, ErrDeadline) && stage != StageCopyIn)
		var backoff time.Duration
		if retryable {
			backoff = r.s.Retry.Backoff(attempt)
		}
		if r.s.OnRetry != nil {
			r.s.OnRetry(RetryEvent{
				Stage: stage, Chunk: i, Attempt: attempt,
				Err: err, Backoff: backoff, Final: !retryable,
			})
		}
		if !retryable {
			return b, &ChunkError{Stage: stage, Chunk: i, Attempts: attempt, Err: err}
		}
		if serr := sleepCtx(ctx, backoff); serr != nil {
			return b, serr
		}
	}
}

// attempt executes fn once over data with panic recovery. With no
// ChunkTimeout the call is direct (no goroutine, no allocation); with one,
// fn runs on its own goroutine and a timer fire abandons it — abandoned
// reports that fn may still be running and data must not be reused.
func (r *runner) attempt(ctx context.Context, i int, data []int64, fn func(int, []int64) error) (err error, abandoned bool) {
	if r.s.ChunkTimeout <= 0 {
		return safeStage(fn, i, data), false
	}
	done := make(chan error, 1)
	go func() {
		done <- safeStage(fn, i, data)
	}()
	timer := time.NewTimer(r.s.ChunkTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err, false
	case <-timer.C:
		return ErrDeadline, true
	case <-ctx.Done():
		return ctx.Err(), true
	}
}
