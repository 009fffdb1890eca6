package sched

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

// traceConfig is testConfig plus the observability surface: a registry
// (so per-phase histograms register) and a small flight-recorder ring.
func traceConfig(capacity int) Config {
	cfg := testConfig()
	cfg.Registry = telemetry.NewRegistry()
	cfg.FlightRecorderCap = capacity
	return cfg
}

// wallSumWithin10Pct asserts the acceptance criterion: the wall-phase
// decomposition (admit+queue+lease+run) accounts for the job's
// submit→terminal latency to within 10%.
func wallSumWithin10Pct(t *testing.T, snap telemetry.TraceSnapshot) {
	t.Helper()
	var sum float64
	for _, p := range telemetry.WallPhases() {
		sum += snap.PhasesMS[p.String()]
	}
	if snap.TotalMS <= 0 {
		t.Fatalf("job %s: total latency %vms", snap.ID, snap.TotalMS)
	}
	if math.Abs(sum-snap.TotalMS) > 0.1*snap.TotalMS {
		t.Fatalf("job %s: wall phases sum %.3fms vs total %.3fms (>10%% apart)\nphases: %v",
			snap.ID, sum, snap.TotalMS, snap.PhasesMS)
	}
}

func hasEvent(snap telemetry.TraceSnapshot, name string) bool {
	for _, e := range snap.Events {
		if e.Name == name {
			return true
		}
	}
	return false
}

// TestTraceStagedJobLifecycle: a staged job carries a complete trace —
// identity, timeline events, folded work phases, an Eq. 1-5 run-time
// prediction — and the flight recorder resolves it by id.
func TestTraceStagedJobLifecycle(t *testing.T) {
	s := newTestScheduler(t, traceConfig(8))
	j, err := s.SubmitCtx(context.Background(), JobSpec{
		Data:   workload.Generate(workload.Random, 40000, 1),
		Tenant: "tenant-a",
	})
	if err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	waitDone(t, j)
	mustSorted(t, j)

	tr := j.Trace()
	if tr == nil {
		t.Fatal("staged job has no trace")
	}
	if got := s.FlightRecorder().Get(j.ID()); got != tr {
		t.Fatalf("flight recorder resolved %p for %s, job holds %p", got, j.ID(), tr)
	}
	snap := tr.Snapshot()
	if snap.ID != j.ID() || snap.Tenant != "tenant-a" || snap.N != 40000 {
		t.Fatalf("trace identity wrong: %+v", snap)
	}
	if snap.State != "done" {
		t.Fatalf("trace state = %q", snap.State)
	}
	for _, ev := range []string{"admitted", "dispatched", "terminal"} {
		if !hasEvent(snap, ev) {
			t.Fatalf("trace missing %q event; have %v", ev, snap.Events)
		}
	}
	wallSumWithin10Pct(t, snap)
	if snap.SpanCount == 0 {
		t.Fatal("staged job recorded no pipeline spans")
	}
	if snap.PhasesMS["compute"] <= 0 {
		t.Fatalf("no compute time folded from spans: %v", snap.PhasesMS)
	}
	if snap.PredictedRunMS <= 0 {
		t.Fatal("staged job has no Eq. 1-5 run prediction")
	}
	if snap.DriftRatio <= 0 {
		t.Fatalf("drift ratio = %v, want > 0", snap.DriftRatio)
	}
}

// TestTraceBatchAttribution: small jobs submitted together each record
// their own pipeline's spans and no one else's (the compute spans of a job
// charge exactly its own cells), and a job's work phases are complete the
// moment Wait returns: nothing lands late that a second fold would add.
func TestTraceBatchAttribution(t *testing.T) {
	s := newTestScheduler(t, traceConfig(16))
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 500+i*37, int64(i))})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitDone(t, j)
		folded := j.Trace().PhaseDuration(telemetry.PhaseCompute)
		mustSorted(t, j)
		snap := j.Trace().Snapshot()
		if len(eventDetails(j, "plan")) != 1 {
			t.Fatalf("job %s: plan events %q, want one", j.ID(), eventDetails(j, "plan"))
		}
		var bytes int64
		var busy time.Duration
		for _, sp := range j.Spans() {
			if sp.Stage != exec.StageCompute {
				t.Fatalf("job %s sorted in place recorded a %v span", j.ID(), sp.Stage)
			}
			bytes += sp.Bytes
			busy += sp.Dur
		}
		if want := int64(16 * j.N()); bytes != want {
			t.Fatalf("job %s: compute spans charge %d bytes, want its own %d", j.ID(), bytes, want)
		}
		if folded <= 0 || folded != busy {
			t.Fatalf("job %s: compute phase %v when Wait returned, its spans hold %v", j.ID(), folded, busy)
		}
		wallSumWithin10Pct(t, snap)
	}
}

// TestTraceSpillJob: a spill-class job's trace carries the spill flag,
// folds copy-out into spill-write, predicts its run time, and picks up
// merge and stream phases when the result is consumed.
func TestTraceSpillJob(t *testing.T) {
	cfg := spillTestConfig(t)
	cfg.Registry = telemetry.NewRegistry()
	cfg.FlightRecorderCap = 8
	s := newTestScheduler(t, cfg)
	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 100_000, spillTestSeed(t))})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	if !j.Spilled() {
		t.Fatal("100k-element job did not spill under the spill-test budgets")
	}
	out := drainStream(t, j)
	if len(out) != 100_000 {
		t.Fatalf("streamed %d elements", len(out))
	}

	snap := j.Trace().Snapshot()
	if !snap.Spilled {
		t.Fatal("trace lost the spill flag")
	}
	if snap.PhasesMS["spill-write"] <= 0 {
		t.Fatalf("no spill-write phase folded: %v", snap.PhasesMS)
	}
	if snap.PhasesMS["copy-out"] != 0 {
		t.Fatalf("spilled job kept a copy-out phase: %v", snap.PhasesMS)
	}
	if snap.PhasesMS["merge"] <= 0 || snap.PhasesMS["stream"] < 0 {
		t.Fatalf("merge/stream phases not recorded: %v", snap.PhasesMS)
	}
	if !hasEvent(snap, "merged") || !hasEvent(snap, "streamed") {
		t.Fatalf("missing merge/stream events: %v", snap.Events)
	}
	if snap.PredictedRunMS <= 0 {
		t.Fatal("spill job has no run prediction")
	}
	wallSumWithin10Pct(t, snap)
}

// TestTracePlanEvent: every job records how it was cut, once, at
// admission, so /debug/jobs/{id}/trace and the flight recorder answer
// "which geometry did this job get". Under the 4 MiB test budget and its
// 600 KB DDR squeeze: 36,000 keys (under the squeeze) fit in place as one
// megachunk (class 64Ki, 512 KiB of scratch), and so do 500 (class 512,
// 4 KiB); 300,000 keys spill in runs of 256Ki cells, half the largest
// scratch the budget holds (512Ki cells), a 2 MiB lease.
func TestTracePlanEvent(t *testing.T) {
	cfg := spillTestConfig(t)
	cfg.FlightRecorderCap = 8
	s := newTestScheduler(t, cfg)
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"default", JobSpec{Data: workload.Generate(workload.Random, 36_000, 1)},
			"flow=in-place megachunk=36000 megachunks=1 lease=524288"},
		{"explicit cut", JobSpec{Data: workload.Generate(workload.Random, 36_000, 3), MegachunkLen: 10_000},
			"flow=in-place megachunk=10000 megachunks=4 lease=131072"},
		{"spill", JobSpec{Data: workload.Generate(workload.Random, 300_000, 4)},
			"flow=spill megachunk=262144 megachunks=2 lease=2097152"},
		{"small", JobSpec{Data: workload.Generate(workload.Random, 500, 5)},
			"flow=in-place megachunk=500 megachunks=1 lease=4096"},
	} {
		j, err := s.Submit(tc.spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
		waitDone(t, j)
		if s.FlightRecorder().Get(j.ID()) != j.Trace() {
			t.Errorf("%s: the flight recorder does not hold the job's trace", tc.name)
		}
		if plans := eventDetails(j, "plan"); len(plans) != 1 || plans[0] != tc.want {
			t.Errorf("%s: plan events %q, want %q", tc.name, plans, tc.want)
		}
		if got := j.LeaseBytes(); !strings.HasSuffix(tc.want, fmt.Sprintf("lease=%d", got)) {
			t.Errorf("%s: the job leased %d bytes, its plan said %q", tc.name, got, tc.want)
		}
	}
}

// TestTraceRejectedSubmission: a caller-provided trace records the
// rejection even though no job was created.
func TestTraceRejectedSubmission(t *testing.T) {
	s := newTestScheduler(t, traceConfig(8))
	tr := telemetry.NewJobTrace()
	_, err := s.SubmitCtx(context.Background(), JobSpec{
		Data:         workload.Generate(workload.Random, 40000, 1),
		MegachunkLen: int(testBudget),
		Trace:        tr,
	})
	if err == nil {
		t.Fatal("over-budget submission accepted")
	}
	snap := tr.Snapshot()
	if !hasEvent(snap, "rejected") {
		t.Fatalf("trace missing rejected event: %v", snap.Events)
	}
	if s.FlightRecorder().Len() != 0 {
		t.Fatal("rejected submission entered the flight recorder")
	}
}

// TestTraceFlightEviction: the scheduler's ring keeps only the newest
// cap traces; evicted ids stop resolving (the /debug 404 contract).
func TestTraceFlightEviction(t *testing.T) {
	s := newTestScheduler(t, traceConfig(2))
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, int64(i+1))})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	fr := s.FlightRecorder()
	if fr.Len() != 2 || fr.Cap() != 2 {
		t.Fatalf("ring len=%d cap=%d, want 2/2", fr.Len(), fr.Cap())
	}
	if fr.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", fr.Evicted())
	}
	for _, id := range ids[:2] {
		if fr.Get(id) != nil {
			t.Fatalf("evicted job %s still resolves", id)
		}
	}
	for _, id := range ids[2:] {
		if fr.Get(id) == nil {
			t.Fatalf("live job %s does not resolve", id)
		}
	}
}

// TestTracePhaseHistograms: terminal jobs feed the per-phase registry
// histograms that /debug and the load generator scrape.
func TestTracePhaseHistograms(t *testing.T) {
	cfg := traceConfig(8)
	s := newTestScheduler(t, cfg)
	for i := 0; i < 3; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, int64(i+1))})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
	}
	var b strings.Builder
	if err := cfg.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`job_phase_seconds_count{phase="queue"} 3`,
		`job_phase_seconds_count{phase="run"} 3`,
		`job_phase_seconds_count{phase="compute"} 3`,
		`job_model_drift_ratio_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestTraceDisabledPhases: without a registry, Phases() is nil and the
// whole observe path is a no-op — jobs still run to completion.
func TestTraceDisabledPhases(t *testing.T) {
	s := newTestScheduler(t, testConfig())
	if s.Phases() != nil {
		t.Fatal("Phases() non-nil without a registry")
	}
	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 1)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	mustSorted(t, j)
	if j.Trace() == nil || !j.Trace().Terminal() {
		t.Fatal("trace should exist and be terminal even without a registry")
	}
}
