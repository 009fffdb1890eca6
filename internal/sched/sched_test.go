package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/model"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/tune"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

const testBudget = units.Bytes(4 << 20) // 4 MiB: room for 8 concurrent 40000-key jobs in place (512 KiB of scratch each)

func testConfig() Config {
	return Config{
		MCDRAMBudget: testBudget,
		Workers:      2,
		TotalThreads: 8,
	}
}

func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil && ctx.Err() != nil {
		t.Fatalf("job %s did not finish: %v", j.ID(), err)
	}
}

// streamAll collects a job's whole StreamResult, consuming it.
func streamAll(j *Job) ([]int64, error) {
	var out []int64
	n, err := j.StreamResult(context.Background(), func(batch []int64) error {
		out = append(out, batch...)
		return nil
	})
	if err == nil && int(n) != len(out) {
		err = fmt.Errorf("StreamResult count %d, sink received %d", n, len(out))
	}
	return out, err
}

func mustSorted(t *testing.T, j *Job) {
	t.Helper()
	out, err := streamAll(j)
	if err != nil {
		t.Fatalf("job %s failed: %v", j.ID(), err)
	}
	if !workload.IsSorted(out) {
		t.Fatalf("job %s output not sorted", j.ID())
	}
}

// gate blocks wrapped pipelines until released, giving tests deterministic
// control over when running jobs finish.
type gate struct {
	ch   chan struct{}
	once sync.Once
}

func newGate() *gate  { return &gate{ch: make(chan struct{})} }
func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }
func (g *gate) wrap() func(exec.Stages) exec.Stages {
	return func(s exec.Stages) exec.Stages {
		inner := s.Compute
		s.Compute = func(i int, buf []int64) error {
			<-g.ch
			return inner(i, buf)
		}
		return s
	}
}

// eventually polls cond for up to 10s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConcurrentJobsRespectBudget is the PR's acceptance test: at least 8
// concurrent staged sort jobs, with total leased MCDRAM provably at or
// under the budget while all of them run, exported through the
// sched_mcdram_leased_bytes gauge.
func TestConcurrentJobsRespectBudget(t *testing.T) {
	const jobs = 8
	g := newGate()
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Workers = jobs
	cfg.Registry = reg
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	var js []*Job
	for i := 0; i < jobs; i++ {
		// Each job gets its own pipeline and its own lease.
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, int64(i+1))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if j.N() != 40000 {
			t.Fatalf("job %d: N = %d", i, j.N())
		}
		js = append(js, j)
	}
	eventually(t, "all jobs running", func() bool { return s.Snapshot().Running == jobs })

	snap := s.Snapshot()
	if snap.LeasedBytes <= 0 || snap.LeasedBytes > snap.BudgetBytes {
		t.Fatalf("leased %v out of range (0, %v]", snap.LeasedBytes, snap.BudgetBytes)
	}
	var sum units.Bytes
	for _, j := range js {
		lb := units.Bytes(j.LeaseBytes())
		if lb <= 0 {
			t.Fatalf("running job %s has no lease", j.ID())
		}
		sum += lb
	}
	if sum != snap.LeasedBytes {
		t.Fatalf("lease sum %v != ledger %v", sum, snap.LeasedBytes)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := b.String()
	if !strings.Contains(text, "sched_mcdram_leased_bytes") {
		t.Fatalf("metrics missing sched_mcdram_leased_bytes:\n%s", text)
	}
	if !strings.Contains(text, "sched_mcdram_budget_bytes") {
		t.Fatalf("metrics missing sched_mcdram_budget_bytes:\n%s", text)
	}

	g.open()
	for _, j := range js {
		waitDone(t, j)
		mustSorted(t, j)
	}
	if got := s.Budget().Leased(); got != 0 {
		t.Fatalf("leased %v after all jobs done, want 0", got)
	}
	if hw := s.Budget().HighWater(); hw > testBudget {
		t.Fatalf("high water %v exceeded budget %v", hw, testBudget)
	}
}

// TestBatchingSortsSmallJobs: a small job is an in-memory job like any
// other. Each of twenty plans for itself (one megachunk sorted where it
// lies, leasing that megachunk's scratch and no more), and the ledger and
// the pool are back where they started once all have sorted.
func TestBatchingSortsSmallJobs(t *testing.T) {
	s := newTestScheduler(t, testConfig())
	var js []*Job
	for i := 0; i < 20; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 500+i*37, int64(i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		js = append(js, j)
	}
	for _, j := range js {
		waitDone(t, j)
		mustSorted(t, j)
		lease := tune.Footprint(j.N())
		want := fmt.Sprintf("flow=in-place megachunk=%d megachunks=1 lease=%d", j.N(), int64(lease))
		if got := eventDetails(j, "plan"); len(got) != 1 || got[0] != want {
			t.Errorf("job %s (n=%d): plan events %q, want %q", j.ID(), j.N(), got, want)
		}
		if got := j.LeaseBytes(); got != int64(lease) {
			t.Errorf("job %s (n=%d): leased %d bytes, want %v", j.ID(), j.N(), got, lease)
		}
	}
	eventually(t, "leases released", func() bool { return s.Budget().Leased() == 0 })
	if fp, free := s.pool.FootprintBytes(), s.pool.FreeBytes(); fp != free {
		t.Fatalf("pool footprint %d after the jobs, freelists hold %d", fp, free)
	}
}

func TestSubmitQueueFullTypedOverload(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueLimit = 2
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	blocker, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, int64(i+2))}); err != nil {
			t.Fatalf("queued %d: %v", i, err)
		}
	}
	_, err = s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 9)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T is not *OverloadError", err)
	}
	if oe.Reason != "queue-full" || oe.QueueDepth != 2 || oe.RetryAfter <= 0 {
		t.Fatalf("unexpected overload payload: %+v", oe)
	}
}

func TestSubmitTooLargeTyped(t *testing.T) {
	s := newTestScheduler(t, testConfig())
	// An explicit megachunk bigger than the whole budget can never lease.
	spec := JobSpec{
		Data:         workload.Generate(workload.Random, 40000, 1),
		MegachunkLen: int(testBudget), // elements; x8 bytes x(buffers+1) >> budget
	}
	_, err := s.Submit(spec)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	var te *TooLargeError
	if !errors.As(err, &te) {
		t.Fatalf("err %T is not *TooLargeError", err)
	}
	if te.Budget != testBudget || te.Lease <= te.Budget {
		t.Fatalf("unexpected payload: %+v", te)
	}
	// Retrying cannot help, and the class is distinct from overload.
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("TooLargeError must not match ErrOverloaded")
	}
}

func TestAutoMegachunkAlwaysFits(t *testing.T) {
	s := newTestScheduler(t, testConfig())
	// Auto-sized jobs clamp their megachunk to the budget instead of
	// rejecting: a dataset much larger than MCDRAM still sorts.
	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 3_000_000, 7)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if j.leaseNeed > testBudget {
		t.Fatalf("megachunk %d leases %v, over the budget", j.megachunk, j.leaseNeed)
	}
	waitDone(t, j)
	mustSorted(t, j)
}

func TestExpiredDeadlineRejectedAndQueuedDeadlineFails(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	_, err := s.Submit(JobSpec{
		Data:     workload.Generate(workload.Random, 1000, 1),
		Deadline: time.Now().Add(-time.Second),
	})
	if !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("expired-deadline submit: err = %v, want ErrDeadlineExpired", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("an expired deadline is not retryable and must not match ErrOverloaded")
	}

	blocker, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 2)})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })
	j, err := s.Submit(JobSpec{
		Data:     workload.Generate(workload.Random, 40000, 3),
		Deadline: time.Now().Add(30 * time.Millisecond),
	})
	if err != nil {
		t.Fatalf("deadline job: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	g.open()
	waitDone(t, j)
	if j.State() != Failed || !errors.Is(j.Err(), ErrDeadlineExpired) {
		t.Fatalf("state %v err %v, want Failed/ErrDeadlineExpired", j.State(), j.Err())
	}
}

func TestCancelQueuedNeverLeaks(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	blocker, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })
	leasedWithOne := s.Budget().Leased()

	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 2)})
	if err != nil {
		t.Fatalf("queued: %v", err)
	}
	j.Cancel()
	waitDone(t, j)
	if j.State() != Canceled || !errors.Is(j.Err(), ErrCanceled) {
		t.Fatalf("state %v err %v, want Canceled/ErrCanceled", j.State(), j.Err())
	}
	if j.LeaseBytes() != 0 {
		t.Fatalf("canceled queued job holds a %d-byte lease", j.LeaseBytes())
	}
	if got := s.Budget().Leased(); got != leasedWithOne {
		t.Fatalf("ledger moved on queued cancel: %v -> %v", leasedWithOne, got)
	}
	j.Cancel() // idempotent
	g.open()
	waitDone(t, blocker)
	mustSorted(t, blocker)
}

func TestCancelRunningReleasesLease(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	eventually(t, "running", func() bool { return j.State() == Running })
	j.Cancel()
	g.open()
	waitDone(t, j)
	if j.State() != Canceled {
		t.Fatalf("state %v, want Canceled", j.State())
	}
	if _, err := streamAll(j); !errors.Is(err, ErrCanceled) {
		t.Fatalf("StreamResult err = %v, want ErrCanceled", err)
	}
	eventually(t, "lease released", func() bool { return s.Budget().Leased() == 0 })
}

// TestRunContextReleasedAtTerminal: a dispatched job's run context hangs
// off the scheduler's root context, which keeps every child it has not seen
// cancelled until Close. However the job ends (sorted, failed, cancelled
// mid-run), its context is cancelled by the time a waiter can look, so a
// long-lived scheduler holds none of a finished job's.
func TestRunContextReleasedAtTerminal(t *testing.T) {
	var failing atomic.Bool
	g := newGate()
	g.open()
	var cur atomic.Pointer[gate]
	cur.Store(g)
	cfg := testConfig()
	cfg.Wrap = func(st exec.Stages) exec.Stages {
		if failing.Load() {
			st.Compute = func(int, []int64) error { return errors.New("boom") }
			return st
		}
		return cur.Load().wrap()(st)
	}
	s := newTestScheduler(t, cfg)
	released := func(j *Job, want State) {
		t.Helper()
		waitDone(t, j)
		if j.State() != want {
			t.Fatalf("job %s (n=%d): state %v (%v), want %v", j.ID(), j.N(), j.State(), j.Err(), want)
		}
		// Wait returns from inside the run; its deferred cancel follows.
		eventually(t, "run context of "+j.ID()+" cancelled", func() bool { return j.runCtx.Err() != nil })
	}
	submit := func(n int) *Job {
		t.Helper()
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, n, int64(n))})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return j
	}
	for _, n := range []int{0, 500, 40000} {
		released(submit(n), Done)
	}
	failing.Store(true)
	released(submit(500), Failed)
	failing.Store(false)

	held := newGate()
	cur.Store(held)
	j := submit(40000)
	eventually(t, "running", func() bool { return j.State() == Running })
	j.Cancel()
	held.open()
	released(j, Canceled)
}

func TestPriorityAgingNoStarvation(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueLimit = 128
	cfg.agingSlack = 20 * time.Millisecond
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	blocker, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })

	low, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 1000, 2), Priority: -2})
	if err != nil {
		t.Fatalf("low: %v", err)
	}
	// Give the low-priority job's virtual deadline time to age past the
	// slack of the high-priority traffic that follows.
	time.Sleep(5 * cfg.agingSlack)
	for i := 0; i < 50; i++ {
		if _, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 1000, int64(i+3)), Priority: 10}); err != nil {
			t.Fatalf("high %d: %v", i, err)
		}
	}
	g.open()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := low.Wait(ctx); err != nil {
		t.Fatalf("low-priority job starved: %v", err)
	}
	mustSorted(t, low)
}

func TestPriorityOrdersQueue(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	blocker, _ := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })
	// Same instant, different priorities: the high one must start first.
	lo, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 2), Priority: 0})
	if err != nil {
		t.Fatalf("lo: %v", err)
	}
	hi, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 3), Priority: 5})
	if err != nil {
		t.Fatalf("hi: %v", err)
	}
	g.open()
	waitDone(t, lo)
	waitDone(t, hi)
	_, hiStart, _ := hi.Times()
	_, loStart, _ := lo.Times()
	if hiStart.After(loStart) {
		t.Fatalf("high-priority started %v after low-priority %v", hiStart, loStart)
	}
}

func TestDrainFinishesEverything(t *testing.T) {
	s := newTestScheduler(t, testConfig())
	var js []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 30000, int64(i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		js = append(js, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, j := range js {
		mustSorted(t, j)
	}
	if _, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 100, 9)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit while draining: err = %v, want ErrOverloaded", err)
	}
}

func TestCloseFailsQueuedWithErrClosed(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Wrap = g.wrap()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	blocker, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })
	queued, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 2)})
	if err != nil {
		t.Fatalf("queued: %v", err)
	}
	g.open() // Close cancels the running pipeline; gate must not hold it
	s.Close()
	if queued.State() != Failed || !errors.Is(queued.Err(), ErrClosed) {
		t.Fatalf("queued job: state %v err %v, want Failed/ErrClosed", queued.State(), queued.Err())
	}
	if !blocker.State().Terminal() {
		t.Fatalf("running job not terminal after Close: %v", blocker.State())
	}
	if _, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 100, 3)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
	}
	if got := s.Budget().Leased(); got != 0 {
		t.Fatalf("leased %v after Close, want 0", got)
	}
}

func TestLookupAndRetention(t *testing.T) {
	cfg := testConfig()
	cfg.RetainJobs = 4
	s := newTestScheduler(t, cfg)
	var ids []string
	for i := 0; i < 8; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 300, int64(i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	if _, ok := s.Lookup(ids[len(ids)-1]); !ok {
		t.Fatal("most recent job evicted")
	}
	if _, ok := s.Lookup(ids[0]); ok {
		t.Fatal("oldest job should have been evicted past RetainJobs")
	}
	if _, ok := s.Lookup("job-999999"); ok {
		t.Fatal("unknown id resolved")
	}
}

// TestFairShareWidthsApplied: each job's widths are solved once, when it
// starts, at its share of the thread budget, and its trace says what they
// were. The gate holds every job running, so the last of four to start
// shares 16 threads four ways; the earlier ones started at whatever
// share the running set gave them then.
func TestFairShareWidthsApplied(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 4
	cfg.TotalThreads = 16
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	var js []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, int64(i+1))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		js = append(js, j)
	}
	eventually(t, "4 widths events", func() bool {
		for _, j := range js {
			if len(eventDetails(j, "widths")) == 0 {
				return false
			}
		}
		return true
	})
	rates := s.Rates()
	want := func(per int) []string {
		return []string{fmt.Sprintf("threads=%d sort=%d", per, rates.Optimal(per, per/2, 1).Pools.Comp)}
	}
	if got := eventDetails(js[3], "widths"); !slices.Equal(got, want(4)) {
		t.Fatalf("last job's widths %q, want %q (16 threads over 4 running jobs)", got, want(4))
	}
	for _, j := range js[:3] {
		got, ok := eventDetails(j, "widths"), false
		for running := 1; running <= 4; running++ {
			ok = ok || slices.Equal(got, want(16/running))
		}
		if !ok {
			t.Fatalf("job %s widths %q match no share of 16 threads over 1-4 jobs", j.ID(), got)
		}
	}
	g.open()
	for _, j := range js {
		waitDone(t, j)
		mustSorted(t, j)
	}
}

// TestSortWidthIndependentOfJobSize is the claim a single solve per job
// rests on: Eq. 1-5 are linear in B_copy, so a job's own byte volume
// solves to the same pools as Table 2's, at every share, whatever the
// job's size.
func TestSortWidthIndependentOfJobSize(t *testing.T) {
	table2 := model.PaperTable2()
	for per := 3; per <= 64; per++ {
		want := table2.Optimal(per, per/2, 1).Pools
		for _, n := range []int{1, 1 << 10, 1 << 20, 64 << 20} {
			params := table2
			params.BCopy = units.Bytes(int64(n) * 8)
			if got := params.Optimal(per, per/2, 1).Pools; got != want {
				t.Errorf("share %d, n %d: pools %+v, want Table 2's %+v", per, n, got, want)
			}
		}
	}
}

func TestStagedJobUsesBudgetedPool(t *testing.T) {
	s := newTestScheduler(t, testConfig())
	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 200000, 5)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j)
	mustSorted(t, j)
	st := s.PoolStats()
	if st.Gets == 0 {
		t.Fatal("job did not draw from the scheduler pool")
	}
	if s.pool.FootprintBytes() > int64(testBudget) {
		t.Fatalf("pool footprint %d exceeds budget %v", s.pool.FootprintBytes(), testBudget)
	}
}

func TestRegistryExportsJobOutcomes(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Registry = reg
	s := newTestScheduler(t, cfg)
	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 1000, 1)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := b.String()
	for _, want := range []string{
		`sched_jobs_completed_total{outcome="done"} 1`,
		"sched_job_latency_seconds",
		"sched_queue_wait_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero budget must be rejected")
	}
	// 16 bytes are the scratch of one 2-cell megachunk, the least a job
	// can sort with; 8 cannot hold it.
	if _, err := New(Config{MCDRAMBudget: 8}); err == nil {
		t.Fatal("budget too small for any sort scratch must be rejected")
	}
	if _, err := New(Config{MCDRAMBudget: 16}); err != nil {
		t.Fatalf("budget of one smallest scratch: %v", err)
	}
}

// TestPriorityClampedAtAdmission guards the EDF queue against client-
// supplied priorities large enough to overflow the virtual-deadline slack
// arithmetic: a huge negative priority must age normally (deadline after
// enqueue), not wrap into a far-past deadline that jumps the queue.
func TestPriorityClampedAtAdmission(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	blocker, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })

	normal, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 2)})
	if err != nil {
		t.Fatalf("normal: %v", err)
	}
	hostile, err := s.Submit(JobSpec{
		Data:     workload.Generate(workload.Random, 40000, 3),
		Priority: -(1 << 40), // would overflow baseSlack * (1 - priority)
	})
	if err != nil {
		t.Fatalf("hostile: %v", err)
	}
	if hostile.spec.Priority != -maxPriorityMagnitude {
		t.Fatalf("priority %d not clamped to %d", hostile.spec.Priority, -maxPriorityMagnitude)
	}
	if enqueued, _, _ := hostile.Times(); !hostile.vdl.After(enqueued) {
		t.Fatalf("virtual deadline %v before enqueue %v: slack overflowed", hostile.vdl, enqueued)
	}
	g.open()
	waitDone(t, normal)
	waitDone(t, hostile)
	_, normalStart, _ := normal.Times()
	_, hostileStart, _ := hostile.Times()
	if hostileStart.Before(normalStart) {
		t.Fatalf("deprioritized job started %v before default-priority job %v", hostileStart, normalStart)
	}
}

// TestLeaseBytesConcurrentWithDispatch reads LeaseBytes (the GET
// /v1/jobs/{id} status path) while the dispatcher starts the job; under
// -race this fails if the lease field is published unsynchronized.
func TestLeaseBytesConcurrentWithDispatch(t *testing.T) {
	s := newTestScheduler(t, testConfig())
	for i := 0; i < 8; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, int64(i+1))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		stop := make(chan struct{})
		go func() {
			defer close(stop)
			for {
				select {
				case <-j.Done():
					return
				default:
					_ = j.LeaseBytes()
				}
			}
		}()
		waitDone(t, j)
		mustSorted(t, j)
		<-stop
	}
}

// TestStagedScratchSettlesOnEveryExit pins the scratch pool's ledger
// across the exits of a job that are not a clean run: a cancelled or
// failed job's sort scratch must go back to the budget-capped pool (or be
// written off it), not stay charged to it for the life of the process.
// Before phase 1's scratch rule was written once, with Forget, each such
// job left one megachunk-sized class on the footprint until every Get was
// refused. Both flows are held to it: the default, sorted in place, and a
// spill job, sorted in place and written out from there; each holds the
// scratch alone, and in both the MCDRAM ledger is back at zero with the
// pool.
func TestStagedScratchSettlesOnEveryExit(t *testing.T) {
	t.Run("spill", func(t *testing.T) { scratchSettlesOnEveryExit(t, true) })
	t.Run("default", func(t *testing.T) { scratchSettlesOnEveryExit(t, false) })
}

func scratchSettlesOnEveryExit(t *testing.T, spilled bool) {
	var cur atomic.Pointer[gate]
	var failing atomic.Bool
	cfg := testConfig()
	if spilled {
		cfg = spillTestConfig(t)
	}
	cfg.Workers = 1
	cfg.Wrap = func(st exec.Stages) exec.Stages {
		if failing.Load() {
			st.Compute = func(int, []int64) error { return errors.New("boom") }
			return st
		}
		if g := cur.Load(); g != nil {
			return g.wrap()(st)
		}
		return st
	}
	s := newTestScheduler(t, cfg)
	submit := func(seed int64) *Job {
		t.Helper()
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 65536, seed), MegachunkLen: 16384})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if j.Spilled() != spilled {
			t.Fatalf("job %s: spilled %v, want %v", j.ID(), j.Spilled(), spilled)
		}
		return j
	}
	sorted := func(j *Job) {
		t.Helper()
		if !spilled {
			mustSorted(t, j)
			return
		}
		if out := drainStream(t, j); len(out) != j.N() || !workload.IsSorted(out) {
			t.Fatalf("job %s streamed %d of %d keys, sorted %v", j.ID(), len(out), j.N(), workload.IsSorted(out))
		}
	}
	settled := func(when string, want int64) {
		t.Helper()
		if fp, free := s.pool.FootprintBytes(), s.pool.FreeBytes(); fp != want || free != want {
			t.Fatalf("%s: pool footprint %d (freelists %d), want %d as before the jobs; stats %+v",
				when, fp, free, want, s.PoolStats())
		}
		eventually(t, when+": lease released", func() bool { return s.Budget().Leased() == 0 })
	}

	warm := submit(1)
	waitDone(t, warm)
	if fp, want := s.pool.FootprintBytes(), tune.Footprint(16384); fp != int64(want) {
		t.Fatalf("a clean job's pipeline drew %d bytes from the pool, want its footprint %v", fp, want)
	}
	sorted(warm)
	pre := s.pool.FootprintBytes() // and, after a spill job's download, the merge's blocks
	settled("after a clean job", pre)

	const cancels = 12
	for i := 0; i < cancels; i++ {
		g := newGate()
		cur.Store(g)
		j := submit(int64(2 + i))
		eventually(t, "running", func() bool { return j.State() == Running })
		j.Cancel()
		g.open()
		waitDone(t, j)
		if j.State() != Canceled {
			t.Fatalf("cancel %d: state %v, want Canceled", i, j.State())
		}
	}
	cur.Store(nil)
	settled(fmt.Sprintf("after %d cancelled jobs", cancels), pre)

	failing.Store(true)
	j := submit(100)
	waitDone(t, j)
	if j.State() != Failed {
		t.Fatalf("state %v, want Failed", j.State())
	}
	failing.Store(false)
	settled("after a failed job", pre)

	next := submit(101)
	waitDone(t, next)
	if st := s.PoolStats(); st.Refusals != 0 {
		t.Fatalf("a job after the aborted ones was refused %d pool Gets: %+v", st.Refusals, st)
	}
	// Before the download: how many blocks a merge holds at once varies
	// with its read-ahead, and the pool keeps the most it was asked for.
	settled("after the following job", pre)
	sorted(next)
}
