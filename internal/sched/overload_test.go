package sched

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"knlmlm/internal/model"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

// slowRates returns model parameters so pessimistic that any staged job
// prices at tens of seconds, making admission-control rejections
// deterministic without real load.
func slowRates() model.Params {
	return model.Params{
		BCopy:     1 << 20,
		DDRMax:    1 << 30,
		MCDRAMMax: 1 << 30,
		SCopy:     4 << 10, // 4 KiB/s: 320 KB of input ~ a minute of copy
		SComp:     4 << 10,
	}
}

// slowModel swaps a fresh scheduler's rates for slowRates, before it has
// admitted anything.
func slowModel(s *Scheduler) {
	s.mu.Lock()
	s.rates = slowRates()
	s.mu.Unlock()
}

// TestDriftEstimatorTracksAndClamps pins the machine-correction EWMA: it
// starts neutral, converges toward the observed measured/predicted
// ratio, keeps classes independent, ignores degenerate samples, and
// clamps at both extremes.
func TestDriftEstimatorTracksAndClamps(t *testing.T) {
	d := newDriftEstimator()
	if f := d.factorFor(driftInMemory); f != 1 {
		t.Fatalf("fresh factor = %v, want 1", f)
	}
	for i := 0; i < 50; i++ {
		d.observe(driftInMemory, 20*time.Millisecond, time.Millisecond)
	}
	if f := d.factorFor(driftInMemory); f < 15 || f > 21 {
		t.Fatalf("factor after 20x samples = %v, want near 20", f)
	}
	if f := d.factorFor(driftSpill); f != 1 {
		t.Fatalf("spill factor moved with staged samples: %v", f)
	}
	d.observe(driftSpill, 0, time.Millisecond)
	d.observe(driftSpill, time.Millisecond, 0)
	if f := d.factorFor(driftSpill); f != 1 {
		t.Fatalf("degenerate samples moved the factor: %v", f)
	}
	for i := 0; i < 100; i++ {
		d.observe(driftSpill, time.Hour, time.Nanosecond)
	}
	if f := d.factorFor(driftSpill); f != driftFactorMax {
		t.Fatalf("factor = %v, want clamped at %v", f, float64(driftFactorMax))
	}
	for i := 0; i < 1000; i++ {
		d.observe(driftSpill, time.Nanosecond, time.Hour)
	}
	if f := d.factorFor(driftSpill); f != driftFactorMin {
		t.Fatalf("factor = %v, want clamped at %v", f, driftFactorMin)
	}
}

// TestDriftCorrectionScalesAdmissionEstimate checks the feedback loop
// end to end inside admission: after the scheduler observes that real
// runs take ~10x the model's estimate, newly admitted jobs are priced
// ~10x higher (predRun) while the raw model estimate (predRaw) is
// unchanged — the correction multiplies, it does not overwrite.
func TestDriftCorrectionScalesAdmissionEstimate(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Registry = reg
	s := newTestScheduler(t, cfg)
	j1, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j1)
	if j1.predRaw <= 0 {
		t.Fatalf("predRaw = %v, want a positive model estimate", j1.predRaw)
	}

	const class = driftInMemory
	for i := 0; i < 50; i++ {
		s.observeDrift(class, 10*j1.predRaw, j1.predRaw)
	}
	f := s.drift.factorFor(class)
	if f < 8 || f > 11 {
		t.Fatalf("drift factor = %v, want near 10", f)
	}

	j2, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 2)})
	if err != nil {
		t.Fatalf("submit corrected: %v", err)
	}
	want := time.Duration(float64(j2.predRaw) * f)
	if j2.predRun < want/2 || j2.predRun > want*2 {
		t.Fatalf("corrected predRun = %v, want ~%v (raw %v x factor %v)", j2.predRun, want, j2.predRaw, f)
	}
	waitDone(t, j2)

	// The updated factor is published for operators.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(b.String(), "sched_model_drift") {
		t.Fatalf("metrics missing sched_model_drift:\n%s", b.String())
	}
}

// TestPredictedLateAdmission drives the model-predicted admission gate:
// with a busy worker and a pessimistic rate model, a deadlined job whose
// predicted start already misses its deadline is rejected at Submit with
// a model-derived Retry-After, while undeadlined work is still admitted.
func TestPredictedLateAdmission(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	slowModel(s)
	defer g.open()

	blocker, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })
	// A second undeadlined job queues behind the blocker, adding its own
	// predicted service time to the backlog price.
	queued, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 2)})
	if err != nil {
		t.Fatalf("queued: %v", err)
	}

	_, err = s.Submit(JobSpec{
		Data:     workload.Generate(workload.Random, 40000, 3),
		Deadline: time.Now().Add(2 * time.Second),
	})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("deadlined submit under predicted backlog: %v, want OverloadError", err)
	}
	if oe.Reason != "predicted-late" {
		t.Fatalf("Reason = %q, want predicted-late", oe.Reason)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("predicted-late must wear the retryable overload class")
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if oe.PredictedWait <= 0 {
		t.Fatalf("PredictedWait = %v, want > 0", oe.PredictedWait)
	}

	g.open()
	waitDone(t, blocker)
	waitDone(t, queued)
	mustSorted(t, blocker)
	mustSorted(t, queued)

	// Idle system: a free worker and an empty queue predict a zero start
	// delay, so the same deadlined job is admitted no matter how slow the
	// configured rates are.
	eventually(t, "queue drained", func() bool {
		snap := s.Snapshot()
		return snap.Queued == 0 && snap.Running == 0
	})
	late, err := s.Submit(JobSpec{
		Data:     workload.Generate(workload.Random, 40000, 4),
		Deadline: time.Now().Add(10 * time.Second),
	})
	if err != nil {
		t.Fatalf("deadlined submit on idle scheduler rejected: %v", err)
	}
	waitDone(t, late)
	mustSorted(t, late)
}

// TestQueuedDeadlineExpiredShed covers in-queue shedding: a job whose
// start deadline passes while it waits is evicted by the dispatcher's
// periodic re-evaluation with the typed ShedError — Failed, not
// Canceled, matching both ErrShed and ErrDeadlineExpired.
func TestQueuedDeadlineExpiredShed(t *testing.T) {
	g := newGate()
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Registry = reg
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	blocker, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })

	j, err := s.Submit(JobSpec{
		Data:     workload.Generate(workload.Random, 40000, 2),
		Deadline: time.Now().Add(300 * time.Millisecond),
	})
	if err != nil {
		t.Fatalf("deadlined submit: %v", err)
	}
	eventually(t, "queued job shed", func() bool { return j.State() == Failed })
	jerr := j.Err()
	if !errors.Is(jerr, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", jerr)
	}
	if !errors.Is(jerr, ErrDeadlineExpired) {
		t.Fatalf("err = %v, must also match ErrDeadlineExpired", jerr)
	}
	var se *ShedError
	if !errors.As(jerr, &se) || se.Reason != ShedDeadlineExpired {
		t.Fatalf("err = %v, want ShedError{deadline-expired}", jerr)
	}
	if got := s.ShedTotals()[ShedDeadlineExpired]; got < 1 {
		t.Fatalf("ShedTotals[%s] = %d, want >= 1", ShedDeadlineExpired, got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(b.String(), "sched_shed_total") {
		t.Fatalf("metrics missing sched_shed_total:\n%s", b.String())
	}
	g.open()
	waitDone(t, blocker)
}

// TestQueuedDeadlineInfeasibleShed covers the predictive eviction: a job
// admitted feasibly becomes infeasible when the running set's predicted
// remainder grows past its deadline, and is shed before the deadline
// actually passes rather than holding a queue slot for a guaranteed
// miss.
func TestQueuedDeadlineInfeasibleShed(t *testing.T) {
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

	// Feasible at admission: the default rate model prices the blocker in
	// microseconds, so the predicted start is well inside the deadline.
	j, err := s.Submit(JobSpec{
		Data:     workload.Generate(workload.Random, 40000, 2),
		Deadline: time.Now().Add(5 * time.Second),
	})
	if err != nil {
		t.Fatalf("deadlined submit: %v", err)
	}

	// The world changes: the running job's predicted remainder jumps (as
	// it would if a long job had just been dispatched ahead, or measured
	// rates collapsed). predRun is read under s.mu, so the test writes it
	// under the same lock.
	s.mu.Lock()
	for r := range s.running {
		r.predRun = time.Hour
	}
	s.mu.Unlock()

	eventually(t, "infeasible job shed", func() bool { return j.State() == Failed })
	var se *ShedError
	if jerr := j.Err(); !errors.As(jerr, &se) || se.Reason != ShedDeadlineInfeasible {
		t.Fatalf("err = %v, want ShedError{deadline-infeasible}", jerr)
	}
	if se.PredictedWait <= 0 {
		t.Fatalf("PredictedWait = %v, want the blocking remainder", se.PredictedWait)
	}
	if !errors.Is(j.Err(), ErrShed) || !errors.Is(j.Err(), ErrDeadlineExpired) {
		t.Fatalf("err = %v, want both ErrShed and ErrDeadlineExpired", j.Err())
	}
	g.open()
	waitDone(t, blocker)
	mustSorted(t, blocker)
}

// TestBrownoutLadder unit-tests the controller: hysteretic raises on a
// hot signal, step-rate limiting, calm-gated lowering, and EWMA decay on
// an empty queue.
func TestBrownoutLadder(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := brownoutConfig{
		raiseQueueDelay: 100 * time.Millisecond,
		stepInterval:    10 * time.Millisecond,
		calmInterval:    50 * time.Millisecond,
	}
	b := newBrownout(cfg, 2*time.Second, reg)
	if b.Level() != BrownoutNormal {
		t.Fatalf("initial level %v", b.Level())
	}
	t0 := time.Now()
	hot := 200 * time.Millisecond
	b.eval(t0, hot, false)
	if b.Level() != BrownoutShedSpill {
		t.Fatalf("level after first hot eval = %v, want shed-spill", b.Level())
	}
	// Within stepInterval: the ladder must not ramp faster than the cap.
	b.eval(t0.Add(5*time.Millisecond), hot, false)
	if b.Level() != BrownoutShedSpill {
		t.Fatalf("level ramped inside stepInterval: %v", b.Level())
	}
	b.eval(t0.Add(15*time.Millisecond), hot, false)
	if b.Level() != BrownoutCritical {
		t.Fatalf("level = %v, want critical after two spaced raises", b.Level())
	}
	b.eval(t0.Add(30*time.Millisecond), hot, false)
	if b.Level() != BrownoutCritical {
		t.Fatalf("level past critical: %v", b.Level())
	}

	// Lowering waits out calmInterval from the last hot signal.
	b.eval(t0.Add(45*time.Millisecond), 0, true)
	if b.Level() != BrownoutCritical {
		t.Fatalf("lowered before calmInterval: %v", b.Level())
	}
	b.eval(t0.Add(85*time.Millisecond), 0, true)
	if b.Level() != BrownoutShedSpill {
		t.Fatalf("level = %v, want shed-spill after calm", b.Level())
	}
	b.eval(t0.Add(100*time.Millisecond), 0, true)
	if b.Level() != BrownoutNormal {
		t.Fatalf("level = %v, want normal after full calm descent", b.Level())
	}

	// The dispatch-delay EWMA alone can raise the level (no queue head
	// needed), and decays by halves while the queue stays empty.
	b2 := newBrownout(cfg, 2*time.Second, telemetry.NewRegistry())
	b2.observeDelay(time.Second)
	b2.eval(t0, 0, false)
	if b2.Level() != BrownoutShedSpill {
		t.Fatalf("EWMA-driven raise missing: %v", b2.Level())
	}
	if b2.delayEWMA() <= 0 {
		t.Fatal("delayEWMA not exposed")
	}
	before := b2.delayEWMA()
	b2.eval(t0.Add(20*time.Millisecond), 0, true)
	if after := b2.delayEWMA(); after >= before {
		t.Fatalf("EWMA did not decay on empty queue: %v -> %v", before, after)
	}
}

// pinnedBrownout makes manually-stored levels stick: raising needs an
// hour of queue delay and lowering an hour of calm, so the only writer
// is the test.
func pinnedBrownout() brownoutConfig {
	return brownoutConfig{raiseQueueDelay: time.Hour, calmInterval: time.Hour}
}

// TestBrownoutGatesAdmissionAndShedsQueue drives the degradation
// semantics end to end: at shed-spill the spill class is rejected at the
// door and evicted from the queue; at critical-only sub-threshold
// priorities are rejected while critical work is still admitted.
func TestBrownoutGatesAdmissionAndShedsQueue(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.DDRBudget = 700 << 10 // 40k elems staged in memory, 60k spills
	cfg.DiskBudget = 4 << 20
	cfg.SpillDir = t.TempDir()
	cfg.brownout = pinnedBrownout()
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	blocker, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	eventually(t, "blocker running", func() bool { return blocker.State() == Running })

	// Level 0: a spill-class job is admitted and queues.
	spillJob, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 60000, 2)})
	if err != nil {
		t.Fatalf("spill submit at normal: %v", err)
	}
	if !spillJob.Spilled() {
		t.Fatal("60k-elem job not classed as spill")
	}

	s.brown.level.Store(int32(BrownoutShedSpill))
	if got := s.BrownoutLevel(); got != BrownoutShedSpill {
		t.Fatalf("BrownoutLevel = %v", got)
	}

	// At the door: new spill-class work is refused with the typed reason.
	_, err = s.Submit(JobSpec{Data: workload.Generate(workload.Random, 60000, 3)})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "brownout-spill" {
		t.Fatalf("spill submit under brownout: %v, want OverloadError{brownout-spill}", err)
	}

	// In the queue: the already-admitted spill job is evicted.
	eventually(t, "queued spill job shed", func() bool { return spillJob.State() == Failed })
	var se *ShedError
	if jerr := spillJob.Err(); !errors.As(jerr, &se) || se.Reason != ShedBrownoutSpill {
		t.Fatalf("err = %v, want ShedError{brownout-spill}", jerr)
	}
	if errors.Is(spillJob.Err(), ErrDeadlineExpired) {
		t.Fatal("a brownout shed is not a deadline failure")
	}
	eventually(t, "disk lease released", func() bool { return s.DiskBudget().Leased() == 0 })

	// Critical-only: default-priority work is refused, critical admitted.
	s.brown.level.Store(int32(BrownoutCritical))
	_, err = s.Submit(JobSpec{Data: workload.Generate(workload.Random, 1000, 4)})
	if !errors.As(err, &oe) || oe.Reason != "brownout-critical" {
		t.Fatalf("default-priority submit at critical: %v, want OverloadError{brownout-critical}", err)
	}
	crit, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 1000, 5), Priority: 5})
	if err != nil {
		t.Fatalf("critical-priority submit rejected: %v", err)
	}

	s.brown.level.Store(int32(BrownoutNormal))
	g.open()
	waitDone(t, blocker)
	waitDone(t, crit)
	mustSorted(t, blocker)
	mustSorted(t, crit)
}

// TestLowPriorityNeverSilentlyStarved is the EDF-aging liveness
// guarantee under sustained overload: a deeply deprioritized job flooded
// by the highest-priority traffic either dispatches (aging promotes it)
// or is shed with the typed error — it never sits in the queue forever
// with no verdict.
func TestLowPriorityNeverSilentlyStarved(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueLimit = 512
	cfg.agingSlack = 50 * time.Millisecond
	s := newTestScheduler(t, cfg)

	low, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1), Priority: -8})
	if err != nil {
		t.Fatalf("low: %v", err)
	}

	// Sustained flood: keep high-priority staged jobs arriving until the
	// low-priority job reaches a verdict. Overload rejections during the
	// flood are expected and fine — the flood only needs to keep the
	// queue contended, not to have every job admitted.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		for i := int64(2); ; i++ {
			select {
			case <-ctx.Done():
				return
			default:
			}
			_, _ = s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, i), Priority: 8})
			time.Sleep(2 * time.Millisecond)
		}
	}()

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer waitCancel()
	err = low.Wait(waitCtx)
	cancel()
	<-floodDone
	if waitCtx.Err() != nil {
		t.Fatalf("low-priority job silently starved for 20s under flood (state %v)", low.State())
	}
	switch {
	case err == nil:
		mustSorted(t, low)
	case errors.Is(err, ErrShed):
		// An explicit shed verdict is an acceptable outcome; silence is not.
	default:
		t.Fatalf("low-priority job failed oddly: %v", err)
	}
}

// TestPreAdmit pins the front door's pre-decode gate: with a backlog
// priced past a request's deadline it answers a retryable predicted-late
// OverloadError (so a server can refuse before parsing the body), while
// an idle scheduler — or a request with no deadline — passes.
func TestPreAdmit(t *testing.T) {
	g := newGate()
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	slowModel(s)
	defer g.open()

	if err := s.PreAdmit(0); err != nil {
		t.Fatalf("PreAdmit(0) on idle scheduler: %v, want nil", err)
	}
	if err := s.PreAdmit(time.Millisecond); err != nil {
		t.Fatalf("PreAdmit on idle scheduler: %v, want nil", err)
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

	err = s.PreAdmit(2 * time.Second)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("PreAdmit under priced backlog: %v, want OverloadError", err)
	}
	if oe.Reason != "predicted-late" || oe.RetryAfter <= 0 || oe.PredictedWait <= 0 {
		t.Fatalf("PreAdmit error = %+v, want predicted-late with positive hints", oe)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("PreAdmit rejection must wear the retryable overload class")
	}
	// No deadline means nothing to miss: the same backlog admits it.
	if err := s.PreAdmit(0); err != nil {
		t.Fatalf("PreAdmit(0) under backlog: %v, want nil", err)
	}

	g.open()
	waitDone(t, blocker)
	waitDone(t, queued)
	mustSorted(t, blocker)
	mustSorted(t, queued)
}
