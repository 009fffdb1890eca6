// Package sched turns the repository's single-run MLM-sort pipelines into a
// multi-tenant service core. The paper's Section 3.2 model provisions one
// sort against the whole 16 GB MCDRAM scratchpad; a service must instead
// split that scratchpad — and the machine's threads — between concurrent
// jobs. The scheduler does three things the single-run code cannot:
//
//   - MCDRAM admission control. A Budget ledger leases staging bytes to
//     each dispatched job; the sum of live leases provably never exceeds
//     the configured budget, and jobs whose minimal lease cannot fit are
//     rejected with a typed, non-retryable error.
//   - Priority- and deadline-aware queueing with backpressure. Admission
//     past a bounded queue fails fast with a typed retryable error carrying
//     a Retry-After hint; queued jobs run earliest-virtual-deadline-first,
//     with priority folded into the deadline so no class starves.
//   - Fair-share provisioning. Every job runs a pipeline of its own,
//     whose copy/compute widths are re-solved from Equations 1-5 each
//     time the set of concurrent jobs changes, at the job's share of the
//     thread budget and the paper's Table 2 rates.
//   - A disk spill class for jobs past the DDR working-set budget. Where
//     the two-level service would hard-reject them, a configured disk
//     budget admits them into a three-level pipeline: phase 1 spills
//     sorted megachunk runs to per-job run stores leased from a separate
//     disk ledger, and the final k-way merge is deferred to the consumer
//     (Job.StreamResult), which streams the output without ever
//     materializing it in DDR.
package sched

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/memkind"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/model"
	"knlmlm/internal/psort"
	"knlmlm/internal/spill"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/tune"
	"knlmlm/internal/units"
	"knlmlm/internal/wire"
)

// Config describes a Scheduler. MCDRAMBudget is required; every other
// field has a usable default.
type Config struct {
	// MCDRAMBudget is the total staging capacity jobs lease from — the
	// service analog of the paper's 16 GB scratchpad partition.
	MCDRAMBudget units.Bytes
	// Workers bounds concurrently running pipelines, one per job. Zero
	// selects 2.
	Workers int
	// QueueLimit bounds admitted-but-not-running jobs; submissions past
	// it are rejected with OverloadError{Reason: "queue-full"}. Zero
	// selects 64.
	QueueLimit int
	// TotalThreads is the thread budget fair-shared across running jobs.
	// Zero selects GOMAXPROCS (floor 3: the model needs all three
	// pools populated).
	TotalThreads int
	// AgingSlack is the base virtual-deadline slack (see virtualDeadline):
	// smaller means priorities decay faster into plain FIFO. Zero selects
	// 2 s.
	AgingSlack time.Duration
	// RetainJobs bounds terminal jobs kept for Lookup. Zero selects 256.
	RetainJobs int
	// Brownout tunes the overload brownout controller (see BrownoutConfig
	// and BrownoutLevel). The zero value selects AgingSlack-derived
	// thresholds.
	Brownout BrownoutConfig

	// DDRBudget caps the DDR working set of an in-memory job: its
	// input plus the materialized final merge, 2x the data bytes. Jobs
	// over it are admitted into the spill class — sorted megachunk runs
	// go to disk and the final merge streams — when DiskBudget is set,
	// and rejected with a DDR TooLargeError otherwise. Zero means
	// unbounded: no job ever spills.
	DDRBudget units.Bytes
	// DiskBudget is the disk-tier ledger capacity spill-class jobs lease
	// their run-file bytes from, accounted separately from the MCDRAM
	// ledger. Zero disables the spill class.
	DiskBudget units.Bytes
	// SpillDir is the parent directory for spill run stores; empty
	// selects the OS temp dir. The scheduler creates one private root
	// under it and removes the root on Close, so a drained shutdown
	// leaves no run files behind.
	SpillDir string
	// IOFaults, when non-nil, injects run-file write/read faults into
	// spill-class jobs (chaos testing; fault.Injector satisfies it).
	IOFaults spill.IOFaults

	// KeyPool, when non-nil, receives terminal jobs' key buffers back at
	// retention eviction, closing the loop with a front end (internal/
	// serve) that decodes binary uploads straight into pooled buffers:
	// submit → sort in place → stream → recycle, with no per-job key
	// allocation in steady state. Recycling waits for any in-flight
	// StreamResult delivery of the buffer (downloads hold a reference),
	// so an evicted job can never hand live memory to a new upload. Nil
	// disables recycling; buffers are left to the GC. Callers that use
	// Job.Result after eviction must leave KeyPool nil — the slice it
	// returns may otherwise be recycled under them.
	KeyPool *mem.SlicePool

	// Registry, when non-nil, receives the sched_* metric families.
	Registry *telemetry.Registry
	// Resilience, when non-nil, receives retry/degradation/outcome
	// counters from job pipelines.
	Resilience *telemetry.Resilience
	// Staging and Policy are the fault plug of every job pipeline, handed
	// to mlmsort whole: the simulated two-level heap (and injected
	// allocation faults) megachunk residency is placed on, and the retry
	// budget, chunk deadline and stage-set wrap.
	memkind.Staging
	exec.Policy
	// FlightRecorderCap bounds the always-on ring of recent job traces
	// (admission order, oldest evicted first). Zero selects
	// telemetry.DefFlightRecorderCap.
	FlightRecorderCap int
	// Logger, when non-nil, receives structured lifecycle events (job
	// admitted/terminal, rejections) with job and tenant attributes. Nil
	// disables logging.
	Logger *slog.Logger
}

func (c Config) norm() (Config, error) {
	if c.MCDRAMBudget <= 0 {
		return c, fmt.Errorf("sched: MCDRAMBudget %v must be positive", c.MCDRAMBudget)
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.TotalThreads <= 0 {
		c.TotalThreads = runtime.GOMAXPROCS(0)
	}
	if c.TotalThreads < 3 {
		c.TotalThreads = 3
	}
	if tune.Staged.MaxMegachunk(c.MCDRAMBudget) < 2 {
		return c, fmt.Errorf("sched: MCDRAMBudget %v cannot stage even one 2-element megachunk under %d buffers",
			c.MCDRAMBudget, tune.StagingBuffers)
	}
	if c.AgingSlack <= 0 {
		c.AgingSlack = 2 * time.Second
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 256
	}
	if c.DDRBudget < 0 || c.DiskBudget < 0 {
		return c, fmt.Errorf("sched: negative DDR (%v) or disk (%v) budget", c.DDRBudget, c.DiskBudget)
	}
	return c, nil
}

// Scheduler is the service core: admission control, queueing, dispatch,
// and fair-share provisioning over one MCDRAM budget.
type Scheduler struct {
	cfg    Config
	budget *Budget
	// disk is the spill tier's separate ledger (nil when DiskBudget is
	// zero): spill-class jobs lease their run-file bytes here while the
	// MCDRAM ledger only covers their staging, so one tier's pressure
	// never masquerades as the other's.
	disk *Budget
	// spillRoot is the scheduler's private parent directory for per-job
	// run stores, removed on Close; diskRate the sequential disk
	// bandwidth measured there at startup (zero if the probe failed).
	spillRoot string
	diskRate  tune.DiskRate
	// pool is the budget-capped staging pool all job pipelines draw from:
	// the byte-accounting second line of defense under the lease ledger.
	// A refused Get degrades that buffer to an unpooled (DDR) allocation
	// instead of failing the job, mirroring the paper's graceful
	// flat-mode degradation.
	pool *mem.SlicePool
	// real is what every pipeline the scheduler starts shares: the
	// configured fault plug and sink, triple buffering, and pool. Each run
	// copies it and adds only its own observer, widths and element kind.
	real mlmsort.RealOptions

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu    sync.Mutex
	queue jobQueue
	// running is the set of dispatched jobs, one pipeline and one worker
	// slot each: its size is what Workers bounds and the fair share divides.
	running  map[*Job]struct{}
	jobs     map[string]*Job
	retired  []string
	seq      int64
	draining bool
	closed   bool
	// queuedWork is the running sum of queued jobs' model-predicted
	// service times (predRun), maintained on every push/pop/remove so
	// admission can price the backlog in O(1).
	queuedWork time.Duration

	kick     chan struct{}
	dispDone chan struct{}
	wg       sync.WaitGroup

	// rates are the Eq. 1-5 per-thread rates (the paper's Table 2) that
	// admission, the fair-share solve and the drift baseline price with.
	rates   model.Params
	drift   *driftEstimator
	metrics *schedMetrics
	brown   *brownout
	// recovery is the startup orphaned-spill reclamation report (zero
	// when spill is disabled or nothing was reclaimed).
	recovery spill.OrphanReport

	// flight is the always-on ring of recent job traces; phases publishes
	// the per-phase job_phase_seconds histograms; logger emits structured
	// lifecycle events (never nil — a disabled handler stands in).
	flight *telemetry.FlightRecorder
	phases *telemetry.PhaseMetrics
	logger *slog.Logger

	submitted int64
}

// New builds and starts a Scheduler; callers must Close it.
func New(cfg Config) (*Scheduler, error) {
	cfg, err := cfg.norm()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		budget:     NewBudget(cfg.MCDRAMBudget),
		pool:       mem.NewSlicePoolBudget(int64(cfg.MCDRAMBudget)),
		rootCtx:    ctx,
		rootCancel: cancel,
		running:    make(map[*Job]struct{}),
		jobs:       make(map[string]*Job),
		kick:       make(chan struct{}, 1),
		dispDone:   make(chan struct{}),
		rates:      model.PaperTable2(),
		drift:      newDriftEstimator(),
		metrics:    newSchedMetrics(cfg.Registry),
		flight:     telemetry.NewFlightRecorder(cfg.FlightRecorderCap),
		phases:     telemetry.NewPhaseMetrics(cfg.Registry),
		logger:     cfg.Logger,
	}
	if s.logger == nil {
		s.logger = telemetry.NopLogger()
	}
	s.real = mlmsort.RealOptions{
		Staging: cfg.Staging, Resilience: cfg.Resilience, Policy: cfg.Policy,
		Buffers: tune.StagingBuffers, Pool: s.pool,
	}
	s.brown = newBrownout(cfg.Brownout, cfg.AgingSlack, s.metrics.reg)
	s.metrics.budgetBytes.Set(float64(cfg.MCDRAMBudget))
	if cfg.DiskBudget > 0 {
		// Before creating this scheduler's spill root, reclaim roots a
		// previous crashed process left behind: their run files pin real
		// disk capacity the budget ledger no longer knows about.
		s.recoverOrphanedSpill(cfg.SpillDir)
		root, err := os.MkdirTemp(cfg.SpillDir, "sched-spill-")
		if err != nil {
			cancel()
			return nil, fmt.Errorf("sched: create spill root: %w", err)
		}
		// Mark the root as owned by this live process so a concurrent or
		// later scheduler's recovery scan leaves it alone.
		if err := spill.WriteOwnerMarker(root); err != nil {
			cancel()
			os.RemoveAll(root)
			return nil, fmt.Errorf("sched: mark spill root: %w", err)
		}
		s.disk = NewBudget(cfg.DiskBudget)
		s.spillRoot = root
		s.metrics.diskBudget.Set(float64(cfg.DiskBudget))
		// Probe the spill medium so admission can price a spill job's run
		// writes. A failed probe leaves the rate zero and the estimate
		// without a write term.
		if dr, err := tune.MeasureDiskRate(root, diskProbeBytes); err == nil {
			s.diskRate = dr
			dr.Publish(cfg.Registry)
		}
	}
	go s.dispatch()
	return s, nil
}

// diskProbeBytes sizes the startup disk-rate probe: large enough for a
// stable sequential-rate sample, small enough to keep New fast.
const diskProbeBytes = 2 << 20

// DiskBudget reports the spill tier's ledger (nil when spill is
// disabled).
func (s *Scheduler) DiskBudget() *Budget { return s.disk }

// DiskRate reports the startup-measured spill-medium bandwidth (zero
// rates when spill is disabled or the probe failed).
func (s *Scheduler) DiskRate() tune.DiskRate { return s.diskRate }

// Budget reports the scheduler's MCDRAM ledger (read-only observation).
func (s *Scheduler) Budget() *Budget { return s.budget }

// FlightRecorder reports the always-on ring of recent job traces.
func (s *Scheduler) FlightRecorder() *telemetry.FlightRecorder { return s.flight }

// Phases reports the per-phase histogram set (nil when the scheduler was
// built without a Registry; telemetry methods are nil-safe).
func (s *Scheduler) Phases() *telemetry.PhaseMetrics { return s.phases }

// PoolStats reports the budget-capped staging pool's counters.
func (s *Scheduler) PoolStats() mem.PoolStats { return s.pool.Stats() }

// KeyPool reports the configured key-buffer recycling pool (nil when
// disabled). The front end draws upload buffers from the same pool so
// eviction-recycled buffers feed the next decode.
func (s *Scheduler) KeyPool() *mem.SlicePool { return s.cfg.KeyPool }

// BrownoutLevel reports the current overload degradation level.
func (s *Scheduler) BrownoutLevel() BrownoutLevel { return s.brown.Level() }

// ShedTotals reports jobs shed by overload control, by reason.
func (s *Scheduler) ShedTotals() map[string]int64 { return s.metrics.shedTotals() }

// SpillRecovery reports the startup orphaned-spill reclamation: what a
// previous crashed process left behind and this one cleaned up.
func (s *Scheduler) SpillRecovery() spill.OrphanReport { return s.recovery }

// Rates reports the Eq. 1-5 model parameters the admission estimator and
// fair-share solver run on: the paper's Table 2, fixed for the
// scheduler's life. A capacity poller (the cluster coordinator's router)
// reads these to price this node with the same model the node prices
// itself with.
func (s *Scheduler) Rates() model.Params { return s.rates }

// TotalThreads reports the thread budget fair-shared across running
// jobs — the pool size Rates() should be solved against.
func (s *Scheduler) TotalThreads() int { return s.cfg.TotalThreads }

// plan is the admission-time sizing decision for one job: its class, how
// it is cut, and what it leases. Nothing downstream re-derives any of it.
type plan struct {
	// flow is the data flow the job's algorithm runs; megachunk the cut, in
	// cells; lease the flow's near-memory footprint at that cut.
	flow      tune.Flow
	megachunk int
	lease     units.Bytes
	// spill-class jobs additionally lease diskLease bytes from the disk
	// ledger for their run files.
	spill     bool
	diskLease units.Bytes
}

// spills reports whether a job of n cells is spill class: its DDR working
// set, input plus materialized final merge, exceeds DDRBudget. Phase 1 of
// such a job stages through MCDRAM as usual but its runs land on disk and
// the merge streams, so its DDR footprint stays at its input plus
// O(read-ahead) whatever its size.
func (s *Scheduler) spills(n int) bool {
	return s.cfg.DDRBudget > 0 && units.Bytes(int64(n)*16) > s.cfg.DDRBudget
}

// planFor sizes a job whose algorithm submit has resolved. Every job, of
// any size and key type, gets its own pipeline, cut by tune.Megachunk for
// the flow its algorithm runs (unless the caller fixed the cut) and leasing
// that flow's footprint: three staging buffers and the sort scratch when
// megachunks are staged, the scratch alone when they are sorted where they
// lie.
func (s *Scheduler) planFor(spec JobSpec) (plan, error) {
	n := len(spec.Data)
	p := plan{flow: tune.InPlace, megachunk: spec.MegachunkLen, spill: s.spills(n)}
	switch {
	case p.spill:
		p.flow = tune.Spill
	case spec.Algorithm.Staged():
		p.flow = tune.Staged
	}
	if p.megachunk <= 0 {
		width := 1
		if spec.KeyType == wire.KindRecord {
			width = 2 // key and payload cells
		}
		// An empty job is cut as one element, so the plan still divides.
		p.megachunk = max(tune.Megachunk(n, width, s.cfg.MCDRAMBudget, p.flow), width)
	}
	p.lease = p.flow.Footprint(p.megachunk)
	if p.lease > s.cfg.MCDRAMBudget {
		return plan{}, &TooLargeError{Lease: p.lease, Budget: s.cfg.MCDRAMBudget}
	}
	if p.spill {
		dataBytes := units.Bytes(int64(n) * 8)
		if s.disk == nil {
			return plan{}, &TooLargeError{Lease: 2 * dataBytes, Budget: s.cfg.DDRBudget, Resource: "DDR"}
		}
		if dataBytes > s.cfg.DiskBudget {
			return plan{}, &TooLargeError{Lease: dataBytes, Budget: s.cfg.DiskBudget, Resource: "disk"}
		}
		p.diskLease = dataBytes
	}
	return p, nil
}

// Submit admits a job or rejects it with a typed error: ErrClosed after
// Close, OverloadError (retryable; matches ErrOverloaded) when draining
// or when the queue is full, ErrDeadlineExpired (not retryable) when the
// deadline already passed at submission, and TooLargeError (not
// retryable; matches ErrTooLarge) when the job's minimal lease exceeds a
// whole tier budget: MCDRAM staging always, DDR working set when no
// spill tier is configured, or the disk budget itself.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with request-scoped trace propagation: the job's
// trace is taken from spec.Trace, else from the context
// (telemetry.WithTrace), else created here — every admitted job carries
// one, lands in the flight recorder, and records pipeline spans through
// the trace's recorder. The context is used only for trace extraction;
// admission itself never blocks.
func (s *Scheduler) SubmitCtx(ctx context.Context, spec JobSpec) (*Job, error) {
	tr := spec.Trace
	if tr == nil {
		tr = telemetry.TraceFrom(ctx)
	}
	if tr == nil {
		tr = telemetry.NewJobTrace()
	}
	j, err := s.submit(spec, tr)
	if err != nil {
		tr.EventDetail("rejected", err.Error())
		s.logger.LogAttrs(ctx, slog.LevelWarn, "job rejected",
			slog.String("tenant", spec.Tenant),
			slog.Int("n", len(spec.Data)),
			slog.String("error", err.Error()))
		return nil, err
	}
	return j, nil
}

func (s *Scheduler) submit(spec JobSpec, tr *telemetry.JobTrace) (*Job, error) {
	if spec.Algorithm == mlmsort.GNUFlat {
		// The zero Algorithm (GNU-flat is not individually addressable) asks
		// for the service's own choice, made here and nowhere else: the
		// paper's proposal, megachunks sorted where they lie, for a job that
		// stays in memory; the staged flow for a spill job, whose copy-out
		// is a real transfer to its run file.
		spec.Algorithm = mlmsort.MLMImplicit
		if s.spills(len(spec.Data)) {
			spec.Algorithm = mlmsort.MLMSort
		}
	}
	if err := validateKeyType(spec); err != nil {
		s.metrics.reject("bad-spec")
		return nil, err
	}
	// Clamp the client-supplied priority before it reaches the virtual-
	// deadline arithmetic: an extreme negative value would overflow the
	// slack multiplication into a far-past deadline, letting a supposedly
	// deprioritized job starve the whole queue.
	spec.Priority = clampPriority(spec.Priority)
	p, perr := s.planFor(spec)

	// Float64 ingress: map the IEEE-754 bit cells through the
	// order-preserving bijection before the lock (it is an O(n) sweep),
	// so every pipeline below sorts the job as plain int64. A rejected
	// submission inverts the map on the way out — the caller gets its
	// buffer back bit-identical.
	admitted := false
	if spec.KeyType == wire.KindFloat64 {
		psort.SortableFromFloat64Bits(spec.Data)
		defer func() {
			if !admitted {
				psort.Float64BitsFromSortable(spec.Data)
			}
		}()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		s.metrics.reject("closed")
		return nil, ErrClosed
	case s.draining:
		s.metrics.reject("draining")
		return nil, &OverloadError{Reason: "draining", QueueDepth: len(s.queue), RetryAfter: s.retryAfterLocked()}
	}
	if perr != nil {
		s.metrics.reject("too-large")
		return nil, perr
	}
	now := time.Now()
	if !spec.Deadline.IsZero() && !spec.Deadline.After(now) {
		// An already-passed deadline is a malformed request, not a capacity
		// problem: retrying the identical submission can never succeed, so
		// it must not wear the retryable overload class.
		s.metrics.reject("deadline")
		return nil, ErrDeadlineExpired
	}
	if len(s.queue) >= s.cfg.QueueLimit {
		s.metrics.reject("queue-full")
		return nil, &OverloadError{Reason: "queue-full", QueueDepth: len(s.queue), RetryAfter: s.retryAfterLocked()}
	}
	// Brownout admission gates: under degradation the scheduler stops
	// accepting the classes it is actively shedding — admitting them only
	// to evict them later wastes queue slots and client patience.
	switch lvl := s.brown.Level(); {
	case lvl >= BrownoutCritical && spec.Priority < criticalPriority:
		s.metrics.reject("brownout-critical")
		return nil, &OverloadError{Reason: "brownout-critical", QueueDepth: len(s.queue), RetryAfter: s.retryAfterLocked()}
	case lvl >= BrownoutShedSpill && p.spill:
		s.metrics.reject("brownout-spill")
		return nil, &OverloadError{Reason: "brownout-spill", QueueDepth: len(s.queue), RetryAfter: s.retryAfterLocked()}
	}
	// Model-predicted admission: price the backlog with the Eq. 1-5
	// estimator and reject a deadlined job whose predicted start already
	// misses its deadline — computing it would be guaranteed waste. The
	// Retry-After hint is model-derived: the overshoot is how much backlog
	// must drain before an identical submission becomes feasible.
	predRaw, predRun := s.estimateServiceLocked(len(spec.Data), p)
	if !spec.Deadline.IsZero() {
		wait := s.predictedStartDelayLocked(now)
		if start := now.Add(wait); start.After(spec.Deadline) {
			s.metrics.reject("predicted-late")
			return nil, &OverloadError{
				Reason:        "predicted-late",
				QueueDepth:    len(s.queue),
				RetryAfter:    clampRetryAfter(start.Sub(spec.Deadline)),
				PredictedWait: wait,
			}
		}
	}

	s.seq++
	s.submitted++
	j := &Job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		spec:      spec,
		n:         len(spec.Data),
		seq:       s.seq,
		done:      make(chan struct{}),
		enqueued:  now,
		heapIdx:   -1,
		megachunk: p.megachunk,
		leaseNeed: p.lease,
		spill:     p.spill,
		diskNeed:  p.diskLease,
		predRun:   predRun,
		predRaw:   predRaw,
		sched:     s,
	}
	j.vdl = virtualDeadline(now, spec.Priority, spec.Deadline, s.cfg.AgingSlack)
	j.trace = tr
	j.recorder = tr.Recorder()
	tr.Bind(j.id, spec.Tenant, j.n)
	if p.spill {
		tr.MarkSpilled()
	}
	tr.EventDetail("plan", fmt.Sprintf("flow=%v megachunk=%d megachunks=%d lease=%d",
		p.flow, p.megachunk, (j.n+p.megachunk-1)/p.megachunk, int64(p.lease)))
	admitted = true
	s.flight.Add(tr)
	s.jobs[j.id] = j
	s.queue.push(j)
	s.queuedWork += j.predRun
	s.metrics.queueDepth.Set(float64(len(s.queue)))
	s.kickLocked()
	return j, nil
}

// validateKeyType rejects malformed key-typed submissions before they
// reach the queue: failing them at dispatch would charge the backlog
// model and a worker slot for a job that can never run.
func validateKeyType(spec JobSpec) error {
	if !spec.KeyType.Valid() {
		return fmt.Errorf("%w: unknown key type %v", ErrBadSpec, spec.KeyType)
	}
	if spec.KeyType == wire.KindRecord {
		if len(spec.Data)%2 != 0 {
			return fmt.Errorf("%w: record job has odd cell count %d", ErrBadSpec, len(spec.Data))
		}
		switch spec.Algorithm {
		case mlmsort.MLMDDr, mlmsort.MLMSort, mlmsort.MLMImplicit, mlmsort.MLMHybrid:
		default:
			return fmt.Errorf("%w: %v has no record data flow", ErrBadSpec, spec.Algorithm)
		}
	}
	return nil
}

// retryAfterLocked estimates when capacity frees: one queue's worth of
// dispatch intervals, clamped to a polite range.
func (s *Scheduler) retryAfterLocked() time.Duration {
	d := 250 * time.Millisecond * time.Duration(1+len(s.queue)/s.cfg.Workers)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// clampRetryAfter bounds a model-derived retry hint to a polite range.
func clampRetryAfter(d time.Duration) time.Duration {
	if d < 100*time.Millisecond {
		return 100 * time.Millisecond
	}
	if d > 10*time.Second {
		return 10 * time.Second
	}
	return d
}

// estimateServiceLocked prices one job with the Eq. 1-5 estimator at the
// steady-state overload thread share (the whole budget split across the
// worker pool — the share a job dispatched under load actually gets),
// using the same rates the fair-share solver uses plus the measured disk
// rate for spill-class jobs. The raw model estimate is
// returned alongside the drift-corrected one: the corrected value prices
// the backlog (it tracks this machine), the raw one is what finished runs
// are compared against to keep the correction honest. Zero means "no
// estimate" (degenerate rates), never "instant".
func (s *Scheduler) estimateServiceLocked(n int, p plan) (raw, corrected time.Duration) {
	per := s.cfg.TotalThreads / s.cfg.Workers
	if per < 3 {
		per = 3
	}
	est := tune.EstimateService(s.rates, units.Bytes(int64(n)*8), per, p.spill, s.diskRate)
	raw = est.Total()
	return raw, time.Duration(float64(raw) * s.drift.factorFor(driftClass(p)))
}

// observeDrift feeds one finished run's measured service time back into
// the class drift factor and publishes the updated factor.
func (s *Scheduler) observeDrift(class int, measured, predictedRaw time.Duration) {
	f := s.drift.observe(class, measured, predictedRaw)
	s.metrics.driftFactor(driftClassNames[class], f)
}

// predictedStartDelayLocked is the model's estimate of how long a job
// admitted now would wait before dispatch: the queued backlog plus the
// unfinished remainder of running pipelines, drained by Workers
// pipelines in parallel. With a free worker and an empty queue the
// predicted wait is zero regardless of rate quality.
func (s *Scheduler) predictedStartDelayLocked(now time.Time) time.Duration {
	if len(s.running) < s.cfg.Workers && len(s.queue) == 0 {
		return 0
	}
	backlog := s.queuedWork
	for j := range s.running {
		j.mu.Lock()
		started := j.started
		j.mu.Unlock()
		if rem := j.predRun - now.Sub(started); rem > 0 {
			backlog += rem
		}
	}
	return backlog / time.Duration(s.cfg.Workers)
}

// popQueuedLocked pops the queue head, keeping the backlog price sum in
// step. All dispatch-side pops must go through here (or
// removeQueuedLocked), never s.queue.pop directly.
func (s *Scheduler) popQueuedLocked() *Job {
	j := s.queue.pop()
	if j != nil {
		s.queuedWork -= j.predRun
		if s.queuedWork < 0 {
			s.queuedWork = 0
		}
	}
	return j
}

// removeQueuedLocked removes a job from anywhere in the queue, keeping
// the backlog price sum in step.
func (s *Scheduler) removeQueuedLocked(j *Job) bool {
	if !s.queue.remove(j) {
		return false
	}
	s.queuedWork -= j.predRun
	if s.queuedWork < 0 {
		s.queuedWork = 0
	}
	return true
}

// Lookup finds a job by id (running, queued, or retained terminal).
func (s *Scheduler) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Stats is a point-in-time scheduler snapshot.
type Stats struct {
	Queued, Running int
	Submitted       int64
	LeasedBytes     units.Bytes
	HighWaterBytes  units.Bytes
	BudgetBytes     units.Bytes
	// Disk-tier ledger state; zero when the spill class is disabled.
	DiskBudgetBytes units.Bytes
	DiskLeasedBytes units.Bytes
	Draining        bool
	// Overload-control state: the brownout degradation level, the
	// smoothed queue-delay signal driving it, and the model-predicted
	// start delay a job admitted now would see.
	Brownout       BrownoutLevel
	QueueDelayEWMA time.Duration
	PredictedStart time.Duration
}

// Snapshot reports current occupancy and ledger state.
func (s *Scheduler) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Queued:         len(s.queue),
		Running:        len(s.running),
		Submitted:      s.submitted,
		LeasedBytes:    s.budget.Leased(),
		HighWaterBytes: s.budget.HighWater(),
		BudgetBytes:    s.budget.Capacity(),
		Draining:       s.draining,
		Brownout:       s.brown.Level(),
		QueueDelayEWMA: s.brown.delayEWMA(),
		PredictedStart: s.predictedStartDelayLocked(time.Now()),
	}
	if s.disk != nil {
		st.DiskBudgetBytes = s.disk.Capacity()
		st.DiskLeasedBytes = s.disk.Leased()
	}
	return st
}

// PreAdmit is the front door's pre-decode admission gate: given only a
// job's relative start deadline (cheap to carry in a request header), it
// answers whether the model-predicted start delay already misses it.
// Under deep overload the expensive part of a doomed request is parsing
// its body — the decode can cost as much as the sort it asks for — so a
// front end should consult PreAdmit before reading the payload and turn
// a non-nil *OverloadError into an immediate backpressure answer. Nil
// means "plausibly feasible": the body-level checks in Submit still
// apply.
func (s *Scheduler) PreAdmit(deadline time.Duration) error {
	if deadline <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	wait := s.predictedStartDelayLocked(time.Now())
	if wait <= deadline {
		return nil
	}
	s.metrics.reject("predicted-late")
	return &OverloadError{
		Reason:        "predicted-late",
		QueueDepth:    len(s.queue),
		RetryAfter:    clampRetryAfter(wait - deadline),
		PredictedWait: wait,
	}
}

func (s *Scheduler) kickLocked() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// dispatch is the scheduler's single dispatcher goroutine: it drains the
// queue head-of-line (never skipping the earliest-deadline job, so a lease
// that doesn't fit today blocks later jobs rather than starving the head)
// and parks until kicked by a submit, a job finishing, or Close.
func (s *Scheduler) dispatch() {
	defer close(s.dispDone)
	// The shed tick bounds how stale an infeasible queued job can get:
	// even with no submit/finish activity to kick the dispatcher, the
	// queue is re-evaluated and the brownout controller stepped at this
	// cadence.
	tick := time.NewTicker(shedTick)
	defer tick.Stop()
	for {
		now := time.Now()
		s.mu.Lock()
		s.shedQueuedLocked(now)
		for s.tryDispatchLocked() {
		}
		s.evalBrownoutLocked(now)
		if s.closed {
			s.failQueuedLocked(ErrClosed)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		select {
		case <-s.kick:
		case <-tick.C:
		}
	}
}

// shedTick is the dispatcher's periodic queue re-evaluation interval.
const shedTick = 100 * time.Millisecond

// tryDispatchLocked makes at most one unit of progress (one job resolved
// or one pipeline launched), reporting whether it did anything.
func (s *Scheduler) tryDispatchLocked() bool {
	head := s.queue.peek()
	if head == nil {
		return false
	}
	// Canceled and expired jobs resolve without a worker slot or lease.
	if head.canceled.Load() {
		s.popQueuedLocked()
		s.finishLocked(head, Canceled, ErrCanceled)
		return true
	}
	if !head.spec.Deadline.IsZero() && !head.spec.Deadline.After(time.Now()) {
		// The deadline passed while the job waited: this is a shed (the
		// scheduler dropping admitted work under pressure), typed so
		// clients can tell it from their own cancels. ShedError still
		// matches ErrDeadlineExpired for this reason.
		s.popQueuedLocked()
		s.shedLocked(head, ShedDeadlineExpired, 0)
		return true
	}
	if len(s.running) >= s.cfg.Workers {
		// Head-of-line blockage starts the lease phase: the job is next in
		// line but cannot dispatch yet (first blockage wins the stamp).
		head.trace.MarkHeadBlocked()
		return false
	}
	lease, ok := s.budget.TryLease(head.leaseNeed)
	if !ok {
		head.trace.MarkHeadBlocked()
		return false
	}
	// Spill jobs lease from both ledgers atomically under the scheduler
	// lock: MCDRAM for staging, disk for run files. Either refusal leaves
	// the job queued (head-of-line, no starvation) with nothing leaked.
	var diskLease *Lease
	if head.spill {
		dl, ok := s.disk.TryLease(head.diskNeed)
		if !ok {
			lease.Release()
			head.trace.MarkHeadBlocked()
			return false
		}
		diskLease = dl
	}
	j := s.popQueuedLocked()
	// The width control must exist before the job enters the running set:
	// refairLocked reads it under the scheduler lock.
	j.widths = mlmsort.NewWidthControl(model.Pools{})
	s.startLocked(j, lease)
	if diskLease != nil {
		j.mu.Lock()
		j.diskLease = diskLease
		j.mu.Unlock()
		s.metrics.diskLeased.Set(float64(s.disk.Leased()))
	}
	s.refairLocked()
	s.wg.Add(1)
	go s.run(j, lease)
	return true
}

// startLocked transitions a popped job to Running under the scheduler lock.
func (s *Scheduler) startLocked(j *Job, lease *Lease) {
	now := time.Now()
	j.mu.Lock()
	j.started = now
	j.lease = lease
	j.mu.Unlock()
	j.state.Store(int32(Running))
	j.trace.MarkStarted()
	j.runCtx, j.cancel = context.WithCancel(s.rootCtx)
	s.running[j] = struct{}{}
	s.metrics.queueDepth.Set(float64(len(s.queue)))
	s.metrics.running.Set(float64(len(s.running)))
	s.metrics.leased.Set(float64(s.budget.Leased()))
	s.metrics.queueWait.Observe(now.Sub(j.enqueued).Seconds())
	s.brown.observeDelay(now.Sub(j.enqueued))
}

// finishLocked resolves a job to a terminal state exactly once.
func (s *Scheduler) finishLocked(j *Job, st State, err error) {
	if State(j.state.Load()).Terminal() {
		return
	}
	now := time.Now()
	j.mu.Lock()
	j.err = err
	j.finished = now
	j.mu.Unlock()
	j.state.Store(int32(st))
	delete(s.running, j)
	s.metrics.queueDepth.Set(float64(len(s.queue)))
	s.metrics.running.Set(float64(len(s.running)))
	s.metrics.completed(st)
	s.metrics.latency.Observe(now.Sub(j.enqueued).Seconds())
	errmsg := ""
	if err != nil {
		errmsg = err.Error()
	}
	j.trace.MarkFinished(st.String(), errmsg)
	j.trace.FoldSpans()
	s.phases.ObserveTrace(j.trace)
	// Only now may a waiter run: it reads trace and histograms as terminal.
	close(j.done)
	if s.logger.Enabled(context.Background(), slog.LevelInfo) {
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "job terminal",
			slog.String("job", j.id),
			slog.String("tenant", j.spec.Tenant),
			slog.String("state", st.String()),
			slog.Int("n", j.n),
			slog.Bool("spilled", j.spill),
			slog.Float64("total_ms", float64(now.Sub(j.enqueued).Nanoseconds())/1e6),
			slog.Float64("queue_ms", float64(j.trace.PhaseDuration(telemetry.PhaseQueue).Nanoseconds())/1e6),
			slog.Float64("lease_ms", float64(j.trace.PhaseDuration(telemetry.PhaseLease).Nanoseconds())/1e6),
			slog.Float64("run_ms", float64(j.trace.PhaseDuration(telemetry.PhaseRun).Nanoseconds())/1e6),
			slog.String("error", errmsg))
	}
	s.retireLocked(j)
}

// retireLocked keeps terminal jobs addressable by Lookup up to the
// retention bound, evicting oldest-first. Eviction is a spilled job's
// last addressable moment, so an unclaimed spilled result is reclaimed
// here — otherwise its run files and disk lease would pin the disk
// budget forever.
func (s *Scheduler) retireLocked(j *Job) {
	s.retired = append(s.retired, j.id)
	for len(s.retired) > s.cfg.RetainJobs {
		old := s.jobs[s.retired[0]]
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
		if old != nil && old.spill {
			old.releaseSpill()
		}
		if old != nil {
			// Eviction is also the job's key buffer's last moment of use:
			// recycle it into the KeyPool (when configured) so the next
			// binary upload decodes into it instead of allocating. Deferred
			// under an in-flight StreamResult download of the same buffer.
			old.recycleData()
		}
	}
}

// failQueuedLocked resolves every queued job (scheduler shutdown).
func (s *Scheduler) failQueuedLocked(err error) {
	for {
		j := s.popQueuedLocked()
		if j == nil {
			return
		}
		s.finishLocked(j, Failed, err)
	}
}

// shedLocked resolves a queued job the scheduler itself evicted under
// overload control: typed terminal error, shed metric, trace event.
// The job must already be off the queue.
func (s *Scheduler) shedLocked(j *Job, reason string, predictedWait time.Duration) {
	s.metrics.shed(reason)
	j.trace.EventDetail("shed", reason)
	s.finishLocked(j, Failed, &ShedError{Reason: reason, PredictedWait: predictedWait})
}

// shedQueuedLocked is the dispatcher's periodic queue re-evaluation: a
// deadline that was feasible at admission may have become impossible
// while the job waited. Evicting such jobs — and, under brownout,
// queued spill-class jobs — returns their queue slots and predicted
// backlog to feasible work instead of computing guaranteed misses.
func (s *Scheduler) shedQueuedLocked(now time.Time) {
	if len(s.queue) == 0 {
		return
	}
	lvl := s.brown.Level()
	// With every worker busy, the earliest any queued job can start is
	// when the soonest-finishing running pipeline frees its slot: the
	// minimum model-predicted remainder across the running set. Jobs with
	// no estimate (predRun zero) contribute a zero remainder, disabling
	// the infeasibility test rather than fabricating one.
	var minRem time.Duration
	allBusy := len(s.running) >= s.cfg.Workers
	if allBusy {
		first := true
		for j := range s.running {
			j.mu.Lock()
			started := j.started
			j.mu.Unlock()
			rem := j.predRun - now.Sub(started)
			if rem < 0 {
				rem = 0
			}
			if first || rem < minRem {
				minRem, first = rem, false
			}
		}
	}
	var shed []*Job
	var reasons []string
	for _, j := range s.queue {
		if j.canceled.Load() {
			continue // resolved as Canceled at the head, not shed
		}
		switch {
		case !j.spec.Deadline.IsZero() && !j.spec.Deadline.After(now):
			shed = append(shed, j)
			reasons = append(reasons, ShedDeadlineExpired)
		case allBusy && minRem > 0 && !j.spec.Deadline.IsZero() && now.Add(minRem).After(j.spec.Deadline):
			shed = append(shed, j)
			reasons = append(reasons, ShedDeadlineInfeasible)
		case lvl >= BrownoutShedSpill && j.spill:
			shed = append(shed, j)
			reasons = append(reasons, ShedBrownoutSpill)
		}
	}
	for i, j := range shed {
		if !s.removeQueuedLocked(j) {
			continue
		}
		var wait time.Duration
		if reasons[i] == ShedDeadlineInfeasible {
			wait = minRem
		}
		s.shedLocked(j, reasons[i], wait)
	}
}

// evalBrownoutLocked feeds the controller its signals: the live age of
// the queue head (the sharpest leading indicator — it grows the moment
// dispatch stalls, before any job completes) and whether the queue has
// drained (so the smoothed signal can decay after a storm).
func (s *Scheduler) evalBrownoutLocked(now time.Time) {
	var headAge time.Duration
	if head := s.queue.peek(); head != nil {
		headAge = now.Sub(head.enqueued)
	}
	s.brown.eval(now, headAge, len(s.queue) == 0)
}

// refairLocked re-solves Equations 1-5 for the current concurrency level
// and pushes the per-job thread split into every running job's width
// control. Called whenever the running set changes.
func (s *Scheduler) refairLocked() {
	if len(s.running) == 0 {
		return
	}
	per := s.cfg.TotalThreads / len(s.running)
	if per < 3 {
		per = 3
	}
	maxIn := per / 2
	if maxIn < 1 {
		maxIn = 1
	}
	pools := s.rates.Optimal(per, maxIn, 1).Pools
	for j := range s.running {
		j.widths.SetPools(pools)
	}
	s.metrics.fairShare.Set(float64(per))
}

// predictRun stores the Eq. 1-5 completion estimate for a job at its
// dispatch-time thread share — the scheduler's rates solved with the
// job's own byte volume. A trace's drift ratio is its measured run
// phase over this estimate, so systematic drift under load is the model
// telling us a resource it doesn't see (queueing inside a tier, disk
// contention) has become binding.
func (s *Scheduler) predictRun(j *Job, per int) {
	if j.n == 0 {
		return // the model takes no empty transfer, and there is no run to predict
	}
	params := s.rates
	params.BCopy = units.Bytes(int64(j.n) * 8)
	maxIn := per / 2
	if maxIn < 1 {
		maxIn = 1
	}
	pred := params.Optimal(per, maxIn, 1)
	if t := pred.TTotal.Seconds(); t > 0 {
		j.trace.SetPredicted(time.Duration(t * float64(time.Second)))
	}
}

// run executes one job, of any size, on its own megachunked pipeline: the
// one place the scheduler starts one. An in-memory job sorts spec.Data in
// place. A spill-class job runs the same phase 1, but each sorted
// megachunk is written to a run file in a per-job store instead of merging
// in DDR. The MCDRAM lease is released the moment the pipeline finishes —
// spilling exists precisely so the deferred merge holds no staging
// capacity — while a spill job's disk lease and run files are held until
// the result is streamed (Job.StreamResult on the consumer's goroutine),
// the retention window evicts the job, or the scheduler closes.
func (s *Scheduler) run(j *Job, lease *Lease) {
	defer s.wg.Done()
	// The run context is registered under rootCtx until it is cancelled:
	// a job that ends on its own must still let go of it.
	defer j.cancel()
	per := s.fairShareThreads()
	s.predictRun(j, per)
	opts := mlmsort.ExternalOptions{RealOptions: s.real}
	opts.Observer, opts.Widths, opts.Elem = j.recorder, j.widths, elemOf(j.spec.KeyType)
	var runs []int
	var err error
	if j.spill {
		opts.Store, err = spill.NewStore(spill.Config{
			Dir:      s.spillRoot,
			MaxBytes: int64(j.diskNeed),
			Faults:   s.cfg.IOFaults,
		})
		if err == nil {
			j.mu.Lock()
			j.store = opts.Store
			j.mu.Unlock()
		}
	}
	runStart := time.Now()
	if err == nil && j.spill {
		runs, _, err = mlmsort.SpillSorted(j.runCtx, j.spec.Algorithm, j.spec.Data, per, j.megachunk, opts)
	} else if err == nil {
		_, err = mlmsort.RunRealResilient(j.runCtx, j.spec.Algorithm, j.spec.Data, per, j.megachunk, opts.RealOptions)
	}
	lease.Release()
	if j.spill && s.cfg.Resilience != nil {
		// RunRealResilient records its own outcome; phase 1 alone does not.
		s.cfg.Resilience.RecordOutcome(err)
	}

	st := Done
	switch {
	case err == nil && j.spill:
		// Float64 spill jobs keep the sortable image on disk; StreamResult
		// inverts each merge batch on egress.
		s.observeDrift(driftSpill, time.Since(runStart), j.predRaw)
		j.mu.Lock()
		j.runIDs = runs
		j.mu.Unlock()
		s.metrics.spillJobs.Add(1)
	case err == nil:
		s.observeDrift(driftStaged, time.Since(runStart), j.predRaw)
		if j.spec.KeyType == wire.KindFloat64 {
			// Float64 egress: the sorted buffer holds the bijection's
			// int64 images; flip it back so the retained result is IEEE
			// bits in float64 total order.
			psort.Float64BitsFromSortable(j.spec.Data)
		}
	case j.canceled.Load():
		st, err = Canceled, ErrCanceled
	case s.rootCtx.Err() != nil:
		st, err = Failed, ErrClosed
	default:
		st = Failed
	}
	if err != nil && j.spill {
		// Abort path: whatever runs phase 1 created die with the store,
		// and the disk lease returns to the ledger immediately.
		j.releaseSpill()
	}
	s.mu.Lock()
	s.finishLocked(j, st, err)
	s.refairLocked()
	s.metrics.leased.Set(float64(s.budget.Leased()))
	s.kickLocked()
	s.mu.Unlock()
}

// foldSpillStats folds a retiring per-job run store's counters into the
// scheduler-lifetime sched_spill_* families.
func (s *Scheduler) foldSpillStats(st spill.Stats) {
	s.metrics.spillRuns.Add(st.RunsCreated)
	s.metrics.spillBytesWritten.Add(st.BytesWritten)
	s.metrics.spillBytesRead.Add(st.BytesRead)
}

// fairShareThreads reports the per-job thread share at current
// concurrency, for a job that is itself running.
func (s *Scheduler) fairShareThreads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	per := s.cfg.TotalThreads / len(s.running)
	if per < 3 {
		per = 3
	}
	return per
}

// cancelJob implements Job.Cancel: a queued job resolves immediately
// (it holds no lease, so there is nothing to leak); a running job has its
// context canceled and unwinds through the pipeline.
func (s *Scheduler) cancelJob(j *Job) {
	s.mu.Lock()
	if State(j.state.Load()).Terminal() {
		s.mu.Unlock()
		return
	}
	j.canceled.Store(true)
	if j.heapIdx >= 0 && s.removeQueuedLocked(j) {
		s.finishLocked(j, Canceled, ErrCanceled)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	j.cancel()
}

// Drain stops admitting (submissions get OverloadError{Reason:"draining"})
// and waits for every queued and running job to resolve, or for ctx.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.kickLocked()
	s.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := len(s.queue) == 0 && len(s.running) == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close shuts the scheduler down: queued jobs fail with ErrClosed,
// running pipelines are canceled, and Close returns once every goroutine
// has exited. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.dispDone
		s.wg.Wait()
		return
	}
	s.closed = true
	s.draining = true
	s.kickLocked()
	s.mu.Unlock()
	s.rootCancel()
	<-s.dispDone
	s.wg.Wait()
	// Reclaim spilled results nobody streamed, then remove the spill
	// root: a drained shutdown must leave no run files behind.
	s.mu.Lock()
	var spilled []*Job
	for _, j := range s.jobs {
		if j.spill {
			spilled = append(spilled, j)
		}
	}
	s.mu.Unlock()
	for _, j := range spilled {
		j.releaseSpill()
	}
	if s.spillRoot != "" {
		os.RemoveAll(s.spillRoot)
	}
}

// Job classes for drift tracking: each class runs a different pipeline
// shape, so the model misses each by a different factor.
const (
	driftStaged = iota
	driftSpill
	driftClasses
)

// driftClassNames are the class label values of sched_model_drift.
var driftClassNames = [driftClasses]string{"staged", "spill"}

// driftEstimator tracks, per job class, how far the Eq. 1-5 service
// estimate misses reality on this machine: an EWMA of the
// measured/predicted run-time ratio, seeded at 1. The admission
// estimator multiplies its raw model estimate by the class factor, so
// backlog pricing and predicted-late rejections track the machine while
// the rates stay the paper's Table 2. Factors are clamped so one
// pathological sample cannot collapse or explode admission.
type driftEstimator struct {
	mu     sync.Mutex
	factor [driftClasses]float64
}

func newDriftEstimator() *driftEstimator {
	d := &driftEstimator{}
	for i := range d.factor {
		d.factor[i] = 1
	}
	return d
}

const (
	driftAlpha     = 0.3
	driftFactorMin = 1.0 / 16
	driftFactorMax = 256
)

// observe folds one measured-vs-raw-predicted sample into the class
// factor, returning the updated factor. Degenerate samples (either side
// non-positive) are ignored.
func (d *driftEstimator) observe(class int, measured, predictedRaw time.Duration) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if measured > 0 && predictedRaw > 0 {
		ratio := float64(measured) / float64(predictedRaw)
		f := (1-driftAlpha)*d.factor[class] + driftAlpha*ratio
		if f < driftFactorMin {
			f = driftFactorMin
		}
		if f > driftFactorMax {
			f = driftFactorMax
		}
		d.factor[class] = f
	}
	return d.factor[class]
}

// factorFor reports the current correction factor for a class.
func (d *driftEstimator) factorFor(class int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.factor[class]
}

// driftClass maps an admission plan to its drift class.
func driftClass(p plan) int {
	if p.spill {
		return driftSpill
	}
	return driftStaged
}

// schedMetrics is the sched_* metric family set. With a nil registry a
// private one is used so the hot paths stay branch-free.
type schedMetrics struct {
	budgetBytes *telemetry.Gauge
	leased      *telemetry.Gauge
	queueDepth  *telemetry.Gauge
	running     *telemetry.Gauge
	fairShare   *telemetry.Gauge
	rejected    map[string]*telemetry.Counter
	shedByWhy   map[string]*telemetry.Counter
	done        map[State]*telemetry.Counter
	drift       map[string]*telemetry.Gauge
	latency     *telemetry.Histogram
	queueWait   *telemetry.Histogram

	diskBudget        *telemetry.Gauge
	diskLeased        *telemetry.Gauge
	spillJobs         *telemetry.Counter
	spillRuns         *telemetry.Counter
	spillBytesWritten *telemetry.Counter
	spillBytesRead    *telemetry.Counter

	mu  sync.Mutex
	reg *telemetry.Registry
}

func newSchedMetrics(reg *telemetry.Registry) *schedMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &schedMetrics{
		reg:         reg,
		budgetBytes: reg.Gauge("sched_mcdram_budget_bytes", "Configured MCDRAM staging budget.", nil),
		leased:      reg.Gauge("sched_mcdram_leased_bytes", "MCDRAM bytes currently out on lease to running jobs.", nil),
		queueDepth:  reg.Gauge("sched_queue_depth", "Admitted jobs waiting for dispatch.", nil),
		running:     reg.Gauge("sched_jobs_running", "Jobs currently running.", nil),
		fairShare:   reg.Gauge("sched_fair_share_threads", "Per-job thread share at current concurrency.", nil),
		rejected:    make(map[string]*telemetry.Counter),
		shedByWhy:   make(map[string]*telemetry.Counter),
		done:        make(map[State]*telemetry.Counter),
		drift:       make(map[string]*telemetry.Gauge),
		latency: reg.Histogram("sched_job_latency_seconds", "Submit-to-terminal job latency.",
			nil, telemetry.DefLatencyBuckets()),
		queueWait: reg.Histogram("sched_queue_wait_seconds", "Submit-to-dispatch queue wait.",
			nil, telemetry.DefLatencyBuckets()),
		diskBudget:        reg.Gauge("sched_disk_budget_bytes", "Configured spill-tier disk budget (0 = spill disabled).", nil),
		diskLeased:        reg.Gauge("sched_disk_leased_bytes", "Disk bytes currently out on lease to spill-class jobs.", nil),
		spillJobs:         reg.Counter("sched_spill_jobs_total", "Jobs admitted into the spill class whose phase 1 completed.", nil),
		spillRuns:         reg.Counter("sched_spill_runs_total", "Run files created by spill-class jobs.", nil),
		spillBytesWritten: reg.Counter("sched_spill_bytes_written_total", "Bytes written to spill run files.", nil),
		spillBytesRead:    reg.Counter("sched_spill_bytes_read_total", "Bytes read back from spill run files by deferred merges.", nil),
	}
	// Pre-register the canonical shed reasons at zero so the family is
	// scrapable (and assertable by smoke checks) before the first
	// eviction; rarer reasons still register lazily.
	for _, reason := range []string{ShedDeadlineExpired, ShedDeadlineInfeasible} {
		m.shedByWhy[reason] = reg.Counter("sched_shed_total", "Admitted jobs evicted by overload control.",
			telemetry.Labels{"reason": reason})
	}
	return m
}

func (m *schedMetrics) reject(reason string) {
	m.mu.Lock()
	c, ok := m.rejected[reason]
	if !ok {
		c = m.reg.Counter("sched_rejected_total", "Submissions rejected at admission.",
			telemetry.Labels{"reason": reason})
		m.rejected[reason] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

func (m *schedMetrics) shed(reason string) {
	m.mu.Lock()
	c, ok := m.shedByWhy[reason]
	if !ok {
		c = m.reg.Counter("sched_shed_total", "Admitted jobs evicted by overload control.",
			telemetry.Labels{"reason": reason})
		m.shedByWhy[reason] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

func (m *schedMetrics) driftFactor(class string, f float64) {
	m.mu.Lock()
	g, ok := m.drift[class]
	if !ok {
		g = m.reg.Gauge("sched_model_drift",
			"EWMA of measured/predicted service time, the admission estimator's machine correction.",
			telemetry.Labels{"class": class})
		m.drift[class] = g
	}
	m.mu.Unlock()
	g.Set(f)
}

func (m *schedMetrics) shedTotals() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.shedByWhy))
	for reason, c := range m.shedByWhy {
		out[reason] = c.Value()
	}
	return out
}

func (m *schedMetrics) completed(st State) {
	m.mu.Lock()
	c, ok := m.done[st]
	if !ok {
		c = m.reg.Counter("sched_jobs_completed_total", "Jobs resolved to a terminal state.",
			telemetry.Labels{"outcome": st.String()})
		m.done[st] = c
	}
	m.mu.Unlock()
	c.Add(1)
}
