package sched

import (
	"errors"
	"fmt"
	"time"

	"knlmlm/internal/units"
)

// Sentinel errors for errors.Is classification. The typed errors below
// carry the details (queue depth, retry hint, sizes) and match these
// sentinels, so callers can branch on class without losing the payload.
var (
	// ErrOverloaded classifies admission rejections that a client should
	// retry later: full queue or draining scheduler.
	ErrOverloaded = errors.New("sched: overloaded")
	// ErrTooLarge classifies jobs whose minimal MCDRAM lease exceeds the
	// scheduler's whole budget — retrying cannot help.
	ErrTooLarge = errors.New("sched: job exceeds MCDRAM budget")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrResultConsumed is returned by Job.StreamResult when the result
	// was already delivered (or reclaimed by eviction, or a spilled one by
	// shutdown): a result is stream-once, its key buffer or run files
	// released on first consumption.
	ErrResultConsumed = errors.New("sched: result already consumed")
	// ErrNotDone is returned by Job.StreamResult before the job reaches a
	// terminal state.
	ErrNotDone = errors.New("sched: job not finished")
	// ErrCanceled is the terminal error of a canceled job.
	ErrCanceled = errors.New("sched: job canceled")
	// ErrDeadlineExpired is the terminal error of a job whose deadline
	// passed before it could start. Submit also returns it for a deadline
	// already in the past — a malformed request, not an overload, since
	// retrying the identical submission can never succeed.
	ErrDeadlineExpired = errors.New("sched: job deadline expired before start")
	// ErrBadSpec classifies malformed submissions — an unknown KeyType,
	// a record job with an odd cell count or a non-MLM algorithm.
	// Retrying the identical submission can never succeed; the HTTP
	// layer maps it to 400.
	ErrBadSpec = errors.New("sched: malformed job spec")
	// ErrShed classifies jobs the scheduler itself evicted from the queue
	// under overload control — deadline became infeasible while waiting,
	// or a brownout level shed the job's class. Distinct from ErrCanceled
	// (the client asked) and from admission rejection (the job was never
	// admitted): a shed job was accepted, then deliberately dropped.
	ErrShed = errors.New("sched: job shed by overload control")
)

// Shed reasons, also the "reason" label values of sched_shed_total.
const (
	// ShedDeadlineExpired: the job's deadline passed while it waited in
	// the queue.
	ShedDeadlineExpired = "deadline-expired"
	// ShedDeadlineInfeasible: the deadline is still in the future, but the
	// model-predicted earliest start already overshoots it — computing the
	// job would burn capacity on a guaranteed miss.
	ShedDeadlineInfeasible = "deadline-infeasible"
	// ShedBrownoutSpill: a brownout level at or above BrownoutShedSpill
	// evicted the queued spill-class job.
	ShedBrownoutSpill = "brownout-spill"
)

// ShedError is the typed terminal error of a shed job. It matches
// ErrShed under errors.Is always, and additionally ErrDeadlineExpired
// for the deadline-derived reasons — a queued job timing out is both a
// shed (the scheduler dropped it) and a deadline expiry (why), and
// pre-shedding callers classified on ErrDeadlineExpired.
type ShedError struct {
	// Reason is one of the Shed* constants.
	Reason string
	// PredictedWait, when positive, is the model-predicted start delay
	// that made the deadline infeasible.
	PredictedWait time.Duration
}

func (e *ShedError) Error() string {
	if e.PredictedWait > 0 {
		return fmt.Sprintf("sched: job shed (%s, predicted start in %v)", e.Reason, e.PredictedWait)
	}
	return fmt.Sprintf("sched: job shed (%s)", e.Reason)
}

// Is matches the ErrShed class, plus ErrDeadlineExpired for the
// deadline-derived reasons.
func (e *ShedError) Is(target error) bool {
	switch target {
	case ErrShed:
		return true
	case ErrDeadlineExpired:
		return e.Reason == ShedDeadlineExpired || e.Reason == ShedDeadlineInfeasible
	}
	return false
}

// OverloadError is the typed admission rejection: the scheduler cannot
// take the job now, but an identical submission may succeed after
// RetryAfter. It matches ErrOverloaded under errors.Is — the HTTP layer
// maps it to 429 with a Retry-After header.
type OverloadError struct {
	// Reason is "queue-full", "draining", "predicted-late" (the model's
	// completion estimate already misses the job's deadline), or a
	// brownout admission gate ("brownout-spill", "brownout-critical").
	Reason string
	// QueueDepth is the queue occupancy at rejection time.
	QueueDepth int
	// RetryAfter is the scheduler's estimate of when capacity frees up.
	// For predicted-late rejections it is model-derived: the amount by
	// which the predicted start overshoots the deadline.
	RetryAfter time.Duration
	// PredictedWait, for predicted-late rejections, is the model-predicted
	// start delay (queue backlog plus running remainder over the worker
	// pool) that triggered the rejection. Zero otherwise.
	PredictedWait time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("sched: overloaded (%s, queue depth %d, retry after %v)",
		e.Reason, e.QueueDepth, e.RetryAfter)
}

// Is matches the ErrOverloaded class.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// TooLargeError reports a job that can never be admitted: the lease it
// would minimally need on some tier exceeds that tier's entire budget.
// It matches ErrTooLarge under errors.Is.
type TooLargeError struct {
	// Lease is the minimal lease the job would need; Budget the
	// scheduler's total budget on the binding tier.
	Lease, Budget units.Bytes
	// Resource names the binding tier: "MCDRAM" (scratch lease), "DDR"
	// (working set, with no spill tier to fall back to), or "disk" (run
	// files would not fit the disk budget). Empty means MCDRAM.
	Resource string
}

func (e *TooLargeError) Error() string {
	r := e.Resource
	if r == "" {
		r = "MCDRAM"
	}
	return fmt.Sprintf("sched: job needs a %v %s lease, budget is %v", e.Lease, r, e.Budget)
}

// Is matches the ErrTooLarge class.
func (e *TooLargeError) Is(target error) bool { return target == ErrTooLarge }
