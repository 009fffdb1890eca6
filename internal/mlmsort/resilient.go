package mlmsort

import (
	"context"
	"sync"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/memkind"
	"knlmlm/internal/model"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
)

// RealOptions configures RunRealResilient. The zero value reproduces
// RunReal exactly: no telemetry, no simulated heap, no faults, no retries.
type RealOptions struct {
	// Observer, when non-nil, receives per-megachunk stage spans (work and
	// buffer-wait) from the staging pipeline plus the final-merge span;
	// typically a telemetry.Recorder.
	Observer exec.Observer
	// Staging places each staged megachunk's residency: an
	// HBW_POLICY_BIND allocation on its simulated heap, which injected
	// faults can also fail. When MCDRAM is exhausted the megachunk
	// degrades to the DDR-direct (MLM-ddr) data flow instead of failing
	// the sort.
	memkind.Staging
	// Resilience, when non-nil, receives retry, degradation, and run
	// outcome counters.
	Resilience *telemetry.Resilience
	// Policy bounds per-megachunk stage attempts (retries, deadline) and
	// carries the stage-set rewrite the fault injector plugs into.
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
	// Widths, when non-nil, hands the staged pipeline's copy and compute
	// pool widths to an external controller (the scheduler's fair-share
	// split across concurrent jobs). The run starts from the control's
	// current pools and tracks later SetPools calls; when Autotune is
	// also set, the tuner's decision is written through the same control.
	Widths *WidthControl
	// Pool, when non-nil, replaces the process-wide shared pool as the
	// source of this run's staging buffers and sort scratch — the hook
	// the scheduler uses to draw job staging from its budget-capped pool.
	// The final-merge buffer still comes from the shared pool: merge
	// space is DDR-side in the paper's data flow, not MCDRAM.
	Pool *mem.SlicePool
	// Elem selects how the int64 cells are interpreted by the sort and
	// merge kernels (see ElemKind). The zero value is ElemInt64, the
	// original key stream. ElemKV requires an even cell count and one of
	// the MLM staged variants — the whole-array GNU sorts and
	// BasicChunked have no record kernels.
	Elem ElemKind
}

// AutotuneOptions configures mid-run re-provisioning. The zero value is
// usable: warmup is one megachunk and the thread budget is inferred from
// the run's current split.
type AutotuneOptions struct {
	// TotalThreads is the budget the re-solve distributes between copy
	// and compute pools; zero selects threads+2 (the initial split).
	TotalThreads int
	// MaxCopyIn bounds the copy-in widths swept; zero selects
	// TotalThreads/2.
	MaxCopyIn int
	// WarmupChunks is how many megachunks to measure before solving;
	// zero selects 1.
	WarmupChunks int
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

// RealStats summarizes one resilient run's megachunk placement.
type RealStats struct {
	// Megachunks is the megachunk count of the run.
	Megachunks int
	// Staged counts megachunks that went through the MCDRAM staging path.
	Staged int
	// Degraded counts megachunks that fell back to the DDR-direct path
	// because their staging allocation failed.
	Degraded int
	// AllocFailures counts failed staging allocations (injected or
	// genuine), including ones on retried attempts.
	AllocFailures int
	// Retunes counts autotune re-provisioning decisions applied (0 or 1).
	Retunes int
	// TunedPools is the thread split the autotuner settled on, when
	// Retunes > 0.
	TunedPools model.Pools
}

// RunRealResilient is RunRealObserved with full failure semantics: the
// run is cancellable through ctx, per-megachunk stage failures are
// retried under opts.Retry, injected or genuine MCDRAM exhaustion
// degrades megachunks to the DDR-direct data flow instead of failing the
// sort, and every retry/degradation/outcome is visible through
// opts.Resilience.
//
// Degraded megachunks still traverse the staging pipeline — their copy
// stages are no-ops and their compute sorts the megachunk in place — so
// their telemetry spans exist but describe skipped copies.
func RunRealResilient(ctx context.Context, a Algorithm, xs []int64, threads, megachunkLen int, opts RealOptions) (RealStats, error) {
	stats, err := runRealResilient(ctx, a, xs, threads, megachunkLen, opts)
	if opts.Resilience != nil {
		opts.Resilience.RecordOutcome(err)
	}
	return stats, err
}

// stagingTable tracks the live scratchpad allocation and the
// staged-vs-degraded decision behind each megachunk. The copy-in
// goroutine, compute-retry re-staging, and (with a chunk deadline)
// abandoned attempts can all touch a slot, and the underlying Scratchpad
// is not itself thread-safe, so every heap call happens under the
// table's lock. The table keeps at most one live allocation per
// megachunk and frees stragglers on drain.
type stagingTable struct {
	staging memkind.Staging

	mu       sync.Mutex
	live     []*memkind.Allocation
	degraded []bool
	failures int
}

func newStagingTable(staging memkind.Staging, n int) *stagingTable {
	return &stagingTable{
		staging:  staging,
		live:     make([]*memkind.Allocation, n),
		degraded: make([]bool, n),
	}
}

// stage decides megachunk i's placement for one copy-in attempt:
// true means the megachunk is MCDRAM-staged (allocation held until
// release), false means it degrades to the DDR-direct path.
func (t *stagingTable) stage(i int, size units.Bytes, res *telemetry.Resilience) bool {
	t.mu.Lock()
	alloc, ok := t.staging.Place(i, size)
	if old := t.live[i]; old != nil {
		// A previous attempt's allocation (e.g. before a compute retry
		// re-staged the chunk) is superseded.
		t.staging.Heap.Free(old)
	}
	t.live[i] = alloc
	t.degraded[i] = !ok
	if !ok {
		t.failures++
	}
	t.mu.Unlock()
	if !ok && res != nil {
		res.RecordDegradation("mlmsort-megachunk")
	}
	return ok
}

// isDegraded reports megachunk i's current placement decision.
func (t *stagingTable) isDegraded(i int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.degraded[i]
}

// release frees megachunk i's staging allocation after copy-out.
func (t *stagingTable) release(i int) {
	t.mu.Lock()
	if a := t.live[i]; a != nil {
		t.staging.Heap.Free(a)
		t.live[i] = nil
	}
	t.mu.Unlock()
}

// drain frees every remaining allocation (aborted or cancelled runs leave
// in-flight megachunks staged) and reports the degraded-megachunk count
// and the allocation-failure tally.
func (t *stagingTable) drain() (degraded, failures int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, a := range t.live {
		if a != nil {
			t.staging.Heap.Free(a)
			t.live[i] = nil
		}
	}
	for _, d := range t.degraded {
		if d {
			degraded++
		}
	}
	return degraded, t.failures
}
