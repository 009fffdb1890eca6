package mlmsort

import (
	"context"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/model"
	"knlmlm/internal/telemetry"
)

// RealOptions configures RunRealResilient. The zero value reproduces
// RunReal exactly: no telemetry, no budget pool, no faults, no retries.
type RealOptions struct {
	// Observer, when non-nil, receives per-megachunk stage spans (work and
	// buffer-wait) from the staging pipeline plus the final-merge span;
	// typically a telemetry.Recorder.
	Observer exec.Observer
	// Resilience, when non-nil, receives retry and run outcome counters.
	Resilience *telemetry.Resilience
	// Policy bounds per-megachunk stage attempts (retries) and carries the
	// stage-set rewrite the fault injector plugs into.
	exec.Policy
	// Buffers is the staging-buffer count for the megachunk pipeline.
	// Zero selects 1, which serializes the stages exactly like the
	// original driver loop; 3 is the paper's triple buffering.
	Buffers int
	// Autotune, when non-nil, measures per-thread copy and compute rates
	// over the first megachunks and re-provisions the staged pipeline's
	// copy and compute widths from the Section 3.2 model solved with the
	// measured rates. Only the staged variants (MLM-sort, MLM-hybrid)
	// have copy pools to tune; others ignore it.
	Autotune *AutotuneOptions
	// SortWorkers is the megachunk sort's worker count (the scheduler's
	// Eq. 1-5 compute pool at a job's share); zero sorts at the run's
	// threads. The final merge runs at threads either way.
	SortWorkers int
	// Pool, when non-nil, replaces the process-wide shared pool as the
	// source of this run's staging buffers and sort scratch — the hook
	// the scheduler and the chaos rig use to draw staging from a
	// budget-capped pool, whose refusals go to unpooled (DDR) buffers.
	// The run buffer the megachunks merge into and the basic sort's merge
	// buffer still come from the shared pool: merge space is DDR-side in
	// the paper's data flow, not MCDRAM.
	Pool *mem.SlicePool
	// Elem selects how the int64 cells are interpreted by the sort and
	// merge kernels (see ElemKind). The zero value is ElemInt64, the
	// original key stream. ElemKV requires an even cell count and one of
	// the MLM staged variants — the whole-array GNU sorts and
	// BasicChunked have no record kernels.
	Elem ElemKind
}

// AutotuneOptions configures mid-run re-provisioning: the tuner measures
// one megachunk, then solves over copy-in widths up to TotalThreads/2.
// The zero value is usable: the thread budget is inferred from the run's
// current split.
type AutotuneOptions struct {
	// TotalThreads is the budget the re-solve distributes between copy
	// and compute pools; zero selects threads+2 (the initial split).
	TotalThreads int
	// Registry, when non-nil, receives autotune_reprovisions_total and
	// the solved-width gauges.
	Registry *telemetry.Registry
}

// buffers resolves the staging-buffer count.
func (o RealOptions) buffers() int {
	if o.Buffers > 0 {
		return o.Buffers
	}
	return 1
}

// pool resolves the slice pool the run draws from. All real pipelines draw
// staging buffers from a slice pool, so repeated runs reuse backing arrays
// instead of re-allocating them.
func (o RealOptions) pool() *mem.SlicePool {
	if o.Pool != nil {
		return o.Pool
	}
	return mem.Pool
}

// RealStats summarizes one resilient run.
type RealStats struct {
	// Megachunks is the megachunk count of the run.
	Megachunks int
	// Retunes counts autotune re-provisioning decisions applied (0 or 1).
	Retunes int
	// TunedPools is the thread split the autotuner settled on, when
	// Retunes > 0.
	TunedPools model.Pools
}

// RunRealResilient is RunRealObserved with full failure semantics: the
// run is cancellable through ctx, per-megachunk stage failures are
// retried under opts.Retry, a budget pool's refusal (MCDRAM exhausted)
// stages through an unpooled DDR buffer instead of failing the sort, and
// every retry and outcome is visible through opts.Resilience.
func RunRealResilient(ctx context.Context, a Algorithm, xs []int64, threads, megachunkLen int, opts RealOptions) (RealStats, error) {
	stats, err := runRealResilient(ctx, a, xs, threads, megachunkLen, opts)
	if opts.Resilience != nil {
		opts.Resilience.RecordOutcome(err)
	}
	return stats, err
}
