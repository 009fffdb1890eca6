package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"knlmlm/internal/mlmsort"
	"knlmlm/internal/psort"
	"knlmlm/internal/spill"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/wire"
)

// State is a job's lifecycle position.
type State int32

const (
	// Queued: admitted, waiting for a worker slot and an MCDRAM lease.
	Queued State = iota
	// Running: dispatched onto a pipeline.
	Running
	// Done: finished with sorted output available.
	Done
	// Failed: finished with an error (retry budget exhausted, deadline
	// expired before start, scheduler shutdown).
	Failed
	// Canceled: canceled by the client before completion.
	Canceled
)

var stateNames = [...]string{"queued", "running", "done", "failed", "canceled"}

// String reports the wire name used by the HTTP API.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// elemOf maps a job's key kind to the pipeline's element kind. Only
// records change the kernels; float64 jobs are int64 to every layer below
// the admission/egress bijection.
func elemOf(k wire.Kind) mlmsort.ElemKind {
	if k == wire.KindRecord {
		return mlmsort.ElemKV
	}
	return mlmsort.ElemInt64
}

// JobSpec describes one sort job.
type JobSpec struct {
	// Data is the keys to sort, as int64 cells interpreted per KeyType.
	// The scheduler takes ownership: the slice is sorted in place and
	// must not be touched until the job is terminal.
	Data []int64
	// KeyType selects how the cells are interpreted at the service edge;
	// zero is wire.KindInt64. The physical buffer is []int64 for every
	// kind. Float64 keys arrive as raw IEEE-754 bit cells: admission maps
	// them through psort's order-preserving bijection, the whole pipeline
	// — in memory or spilled — sorts them as plain int64, and the inverse
	// is applied before any result leaves (completion for in-memory jobs,
	// per batch for streamed spill merges), so results are again bit cells
	// in float64 total order (NaN sign split, -0.0 < +0.0). Records are
	// interleaved key/payload cell pairs (psort.KV layout): Data must have
	// even length.
	KeyType wire.Kind
	// Priority orders admission: higher runs sooner. Zero is the default
	// class; negative deprioritizes. Values outside [-8, 8] are clamped
	// at submission.
	Priority int
	// Deadline, when non-zero, is the latest acceptable start time. Jobs
	// that cannot start by it are rejected at submission (when the
	// estimated queue wait already overshoots) or failed at dispatch.
	Deadline time.Time
	// MegachunkLen overrides the scheduler's budget-aware megachunk
	// sizing (elements; 0 = automatic).
	MegachunkLen int
	// Tenant labels the submitting tenant in traces and structured logs
	// (informational; no quota semantics).
	Tenant string
	// Trace, when non-nil, is the request-scoped lifecycle trace the job
	// continues (created at the HTTP edge). Nil falls back to the
	// submission context's trace, then to a fresh one — every admitted
	// job is traced.
	Trace *telemetry.JobTrace
}

// Job is a submitted sort tracked through the scheduler.
type Job struct {
	id    string
	spec  JobSpec
	n     int
	seq   int64
	state atomic.Int32

	// err and lease (the MCDRAM reservation) are guarded by mu after
	// construction; the lifecycle stamps are the trace's alone.
	mu    sync.Mutex
	err   error
	lease *Lease

	done chan struct{}

	// vdl is the queue's virtual deadline (EDF key); heapIdx the job's
	// position in the queue heap, -1 once popped. Guarded by the
	// scheduler's lock.
	vdl     time.Time
	heapIdx int
	// predRun is the Eq. 1-5 model-predicted service time priced at
	// admission (zero when the rates were degenerate), already corrected
	// by the class drift factor. It feeds the scheduler's queuedWork
	// backlog sum and the infeasibility sweep; immutable after admission.
	// predRaw is the same estimate before drift correction — the run
	// loops compare it against the measured service time to keep the
	// drift factor tracking the machine.
	predRun time.Duration
	predRaw time.Duration

	// Every job gets its own megachunked pipeline. megachunk and
	// leaseNeed are the admission-time plan: the cut in cells and the
	// MCDRAM lease dispatch takes for it.
	megachunk int
	leaseNeed units.Bytes

	// spill-class jobs sort through the three-level pipeline: phase 1
	// spills sorted megachunk runs into store, and the deferred merge
	// (StreamResult) consumes them. diskNeed is the admission-time disk
	// lease size; store/runIDs/diskLease/streamed are guarded by mu.
	spill     bool
	diskNeed  units.Bytes
	store     *spill.Store
	runIDs    []int
	diskLease *Lease
	streamed  bool

	// dataRefs counts in-flight StreamResult deliveries of spec.Data;
	// dataGone marks the buffer reclaimed (retention eviction recycled it
	// into the scheduler's KeyPool, or will as soon as the refs drain; a
	// spill job lets go of it when phase 1 has written its runs). Both
	// guarded by mu. Zero-valued (no refcounting cost) for an in-memory
	// job when the scheduler has no KeyPool.
	dataRefs int
	dataGone bool

	canceled atomic.Bool
	runCtx   context.Context
	cancel   context.CancelFunc
	trace    *telemetry.JobTrace
	sched    *Scheduler
}

// ID reports the job's identifier ("job-000042").
func (j *Job) ID() string { return j.id }

// N reports the job's cell count (record jobs hold N/2 records).
func (j *Job) N() int { return j.n }

// KeyType reports the job's key representation.
func (j *Job) KeyType() wire.Kind { return j.spec.KeyType }

// State reports the current lifecycle state.
func (j *Job) State() State { return State(j.state.Load()) }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx expires.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err reports the terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the sorted cells after a successful completion; before
// a terminal state, or after failure/cancellation, it returns nil and
// the job's error. Spill-class jobs return ErrSpilled: their output
// exists only as disk run files and must be consumed through
// StreamResult. Cells follow the job's KeyType: IEEE-754 bits in
// float64 total order for KeyFloat64, interleaved key/payload pairs for
// KeyRecord.
//
// With Config.KeyPool set, the returned slice may be recycled into the
// pool once the job is evicted from retention — callers on such
// schedulers must consume results through StreamResult, whose delivery
// window pins the buffer.
func (j *Job) Result() ([]int64, error) {
	if !j.State().Terminal() {
		return nil, nil
	}
	if err := j.Err(); err != nil {
		return nil, err
	}
	if j.spill {
		return nil, ErrSpilled
	}
	return j.spec.Data, nil
}

// Spilled reports whether the job was admitted into the spill class
// (result must be consumed through StreamResult).
func (j *Job) Spilled() bool { return j.spill }

// DiskLeaseBytes reports the disk-tier lease the job held for its run
// files; 0 for in-memory jobs and before dispatch.
func (j *Job) DiskLeaseBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int64(j.diskLease.Bytes())
}

// StreamResult delivers the sorted output through sink as a stream of
// nondecreasing batches (each batch only valid during its call) and
// returns the element count delivered. An in-memory job's result arrives
// as one batch. A spill-class job's result is produced here, by the
// deferred k-way merge over its run files — exactly once: the run files
// and the disk lease are released on every exit (success, sink error,
// ctx cancellation), and a second call returns ErrResultConsumed, as
// does a call after retention eviction or scheduler Close already
// reclaimed the runs. Before a terminal state it returns ErrNotDone;
// after failure or cancellation, the job's terminal error.
func (j *Job) StreamResult(ctx context.Context, sink func([]int64) error) (int64, error) {
	if !j.State().Terminal() {
		return 0, ErrNotDone
	}
	if err := j.Err(); err != nil {
		return 0, err
	}
	if !j.spill {
		if !j.acquireData() {
			// Retention eviction recycled the key buffer between the
			// caller's Lookup and this call; the result is gone.
			return 0, ErrResultConsumed
		}
		start := time.Now()
		err := sink(j.spec.Data)
		j.releaseData()
		if err != nil {
			return 0, err
		}
		j.observeStream(0, time.Since(start))
		return int64(j.n), nil
	}
	j.mu.Lock()
	store, runs := j.store, j.runIDs
	already := j.streamed || store == nil
	j.streamed = true
	j.mu.Unlock()
	if already {
		return 0, ErrResultConsumed
	}
	defer j.releaseSpill()
	s := j.sched
	opts := mlmsort.ExternalOptions{
		RealOptions: s.real,
		ReadAhead:   1,
		// The download merge runs post-terminal, outside the fair-share
		// budget; cap its fan-out at what the host can actually run.
		MergeThreads: min(s.cfg.TotalThreads, runtime.GOMAXPROCS(0)),
	}
	// Split the download's wall time into its two post-terminal phases:
	// sink-callback time is delivery (stream), the rest is the k-way merge
	// itself (run reads + heap work).
	opts.Elem = elemOf(j.spec.KeyType)
	start := time.Now()
	var sinkTime time.Duration
	f64 := j.spec.KeyType == wire.KindFloat64
	n, err := mlmsort.MergeSpilled(ctx, store, runs, opts, func(batch []int64) error {
		if f64 {
			// Run files hold the sortable int64 images; flip each merge
			// batch back to IEEE bits in place — the batch is the merge's
			// transient window buffer (or a consumed fill block), never
			// re-read, so the stream stays zero-copy.
			psort.Float64BitsFromSortable(batch)
		}
		s0 := time.Now()
		serr := sink(batch)
		sinkTime += time.Since(s0)
		return serr
	})
	j.observeStream(time.Since(start)-sinkTime, sinkTime)
	return n, err
}

// observeStream folds a result download's merge/stream time into the
// job's trace and the scheduler's phase histograms.
func (j *Job) observeStream(merge, stream time.Duration) {
	j.trace.AddPhase(telemetry.PhaseMerge, merge)
	j.trace.AddPhase(telemetry.PhaseStream, stream)
	if merge > 0 {
		j.trace.EventDetail("merged", merge.String())
	}
	if stream > 0 {
		j.trace.EventDetail("streamed", stream.String())
	}
	j.sched.phases.ObservePhase(telemetry.PhaseMerge, merge)
	j.sched.phases.ObservePhase(telemetry.PhaseStream, stream)
}

// acquireData pins spec.Data for an in-memory StreamResult delivery,
// reporting false when eviction already reclaimed it. Pinning is what
// makes eviction-time recycling safe: the buffer can only enter the
// KeyPool freelist once no download goroutine can still be writing it
// to a socket.
func (j *Job) acquireData() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dataGone {
		return false
	}
	j.dataRefs++
	return true
}

// releaseData unpins spec.Data, completing a deferred recycle if
// eviction fired while the delivery was in flight.
func (j *Job) releaseData() {
	j.mu.Lock()
	j.dataRefs--
	var data []int64
	if j.dataRefs == 0 && j.dataGone {
		data = j.spec.Data
		j.spec.Data = nil
	}
	j.mu.Unlock()
	j.recycleInto(data)
}

// recycleData reclaims the job's key buffer into the scheduler's
// KeyPool, exactly once, deferring under in-flight deliveries. A no-op
// without a configured KeyPool. Called at retention eviction — after
// which the job is unreachable through Lookup, so only a download that
// raced the eviction can still hold a reference.
func (j *Job) recycleData() {
	if j.sched.cfg.KeyPool == nil {
		return
	}
	j.mu.Lock()
	var data []int64
	if !j.dataGone {
		j.dataGone = true
		if j.dataRefs == 0 {
			data = j.spec.Data
			j.spec.Data = nil
		}
	}
	j.mu.Unlock()
	j.recycleInto(data)
}

// recycleInto puts a reclaimed buffer back into the KeyPool (nil-safe).
func (j *Job) recycleInto(data []int64) {
	if data != nil && j.sched.cfg.KeyPool != nil {
		j.sched.cfg.KeyPool.Put(data)
	}
}

// releaseSpill reclaims the job's spill-tier resources — run store
// (deleting its files) and disk lease — exactly once; later calls are
// no-ops. Every terminal path for a spill job funnels here: stream
// completion, merge failure, phase-1 abort, cancellation, retention
// eviction, and scheduler Close.
func (j *Job) releaseSpill() {
	j.mu.Lock()
	store, dl := j.store, j.diskLease
	j.store = nil
	j.runIDs = nil
	j.mu.Unlock()
	if store != nil {
		j.sched.foldSpillStats(store.Stats())
		store.Close()
	}
	dl.Release()
	if j.sched.disk != nil {
		j.sched.metrics.diskLeased.Set(float64(j.sched.disk.Leased()))
	}
}

// Times reports the lifecycle stamps, read from the job's trace (zero
// where not reached).
func (j *Job) Times() (enqueued, started, finished time.Time) { return j.trace.Times() }

// QueueWait reports time from admission to dispatch (or to the terminal
// stamp, or now, while never dispatched): the trace's queue phase plus
// its lease phase.
func (j *Job) QueueWait() time.Duration {
	return j.trace.PhaseDuration(telemetry.PhaseQueue) + j.trace.PhaseDuration(telemetry.PhaseLease)
}

// runRemaining is the model-predicted remainder of a running job: its
// predRun less its run phase so far, floored at zero.
func (j *Job) runRemaining() time.Duration {
	return max(j.predRun-j.trace.PhaseDuration(telemetry.PhaseRun), 0)
}

// Spans reports the job's recorded pipeline spans (always recorded; the
// trace's recorder is attached to every job's pipeline).
func (j *Job) Spans() []telemetry.Span { return j.trace.Recorder().Spans() }

// Trace reports the job's lifecycle trace (never nil for an admitted
// job).
func (j *Job) Trace() *telemetry.JobTrace { return j.trace }

// LeaseBytes reports the MCDRAM lease the job held; 0 before dispatch.
func (j *Job) LeaseBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int64(j.lease.Bytes())
}

// Cancel stops the job: a queued job terminates immediately without ever
// taking a lease; a running job's context is canceled and the pipeline
// unwinds. Cancel after a terminal state is a no-op.
func (j *Job) Cancel() { j.sched.cancelJob(j) }
