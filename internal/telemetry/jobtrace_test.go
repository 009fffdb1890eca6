package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"knlmlm/internal/exec"
)

// TestJobTraceLifecycle walks a trace through a full lifecycle and checks
// the wall-phase decomposition: admit + queue + lease + run must equal
// the submit→terminal total exactly (the invariant /debug/overload's
// attribution rests on).
func TestJobTraceLifecycle(t *testing.T) {
	tr := NewJobTrace()
	tr.Event("http-receive")
	time.Sleep(2 * time.Millisecond)
	tr.Bind("job-000001", "tenant-a", 4096)
	time.Sleep(2 * time.Millisecond)
	tr.MarkHeadBlocked()
	time.Sleep(2 * time.Millisecond)
	tr.MarkStarted()
	time.Sleep(2 * time.Millisecond)
	tr.MarkFinished("done", "")

	if !tr.Terminal() {
		t.Fatal("trace not terminal after MarkFinished")
	}
	if got := tr.ID(); got != "job-000001" {
		t.Fatalf("ID = %q", got)
	}
	snap := tr.Snapshot()
	if snap.State != "done" || snap.Tenant != "tenant-a" || snap.N != 4096 {
		t.Fatalf("snapshot identity wrong: %+v", snap)
	}
	var wallSum float64
	for _, p := range WallPhases() {
		d, ok := snap.PhasesMS[p.String()]
		if !ok {
			t.Fatalf("wall phase %s missing from snapshot", p)
		}
		if d <= 0 {
			t.Fatalf("wall phase %s = %v, want > 0 (all were slept through)", p, d)
		}
		wallSum += d
	}
	if diff := wallSum - snap.TotalMS; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("wall phases sum to %.6fms, total is %.6fms", wallSum, snap.TotalMS)
	}
	// Events arrived in lifecycle order.
	var names []string
	for _, e := range snap.Events {
		names = append(names, e.Name)
	}
	want := []string{"http-receive", "admitted", "head-blocked", "dispatched", "terminal"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("events = %v, want %v", names, want)
	}
}

// TestJobTraceNoHeadBlock: a job that dispatches without ever blocking at
// the head has a zero lease phase and queue runs straight to dispatch.
func TestJobTraceNoHeadBlock(t *testing.T) {
	tr := NewJobTrace()
	tr.Bind("j", "", 10)
	time.Sleep(time.Millisecond)
	tr.MarkStarted()
	tr.MarkFinished("done", "")
	if d := tr.PhaseDuration(PhaseLease); d != 0 {
		t.Fatalf("lease phase = %v, want 0 (never head-blocked)", d)
	}
	if d := tr.PhaseDuration(PhaseQueue); d <= 0 {
		t.Fatalf("queue phase = %v, want > 0", d)
	}
}

// TestJobTraceFoldSpans: the work phases are the recorder's busy time,
// summed when read: copy-in, compute and copy-out, with copy-out
// reattributed to spill-write for spilled jobs.
func TestJobTraceFoldSpans(t *testing.T) {
	for _, spilled := range []bool{false, true} {
		tr := NewJobTrace()
		tr.Bind("j", "", 10)
		if spilled {
			tr.MarkSpilled()
		}
		rec := tr.Recorder()
		rec.Add(Span{Stage: exec.StageCopyIn, Worker: 0, Dur: 5 * time.Millisecond})
		rec.Add(Span{Stage: exec.StageCompute, Worker: 1, Dur: 7 * time.Millisecond})
		rec.Add(Span{Stage: exec.StageCopyOut, Worker: 2, Dur: 3 * time.Millisecond})
		// Wait-stage spans are idle time, not work; they must not count.
		rec.Add(Span{Stage: exec.StageComputeWait, Worker: 1, Dur: time.Hour})
		tr.MarkStarted()
		tr.MarkFinished("done", "")

		if d := tr.PhaseDuration(PhaseCopyIn); d != 5*time.Millisecond {
			t.Fatalf("spilled=%v: copy-in = %v", spilled, d)
		}
		if d := tr.PhaseDuration(PhaseCompute); d != 7*time.Millisecond {
			t.Fatalf("spilled=%v: compute = %v", spilled, d)
		}
		out, other := PhaseCopyOut, PhaseSpillWrite
		if spilled {
			out, other = PhaseSpillWrite, PhaseCopyOut
		}
		if d := tr.PhaseDuration(out); d != 3*time.Millisecond {
			t.Fatalf("spilled=%v: %s = %v", spilled, out, d)
		}
		if d := tr.PhaseDuration(other); d != 0 {
			t.Fatalf("spilled=%v: %s = %v, want 0", spilled, other, d)
		}
	}
}

// TestJobTraceEventCapDrops: events past the fixed capacity are counted,
// not appended — the backing array never grows.
func TestJobTraceEventCapDrops(t *testing.T) {
	tr := NewJobTrace()
	for i := 0; i < traceEventCap+10; i++ {
		tr.Event("e")
	}
	snap := tr.Snapshot()
	if len(snap.Events) != traceEventCap {
		t.Fatalf("kept %d events, want %d", len(snap.Events), traceEventCap)
	}
	if snap.DroppedEvents != 10 {
		t.Fatalf("dropped = %d, want 10", snap.DroppedEvents)
	}
}

// TestJobTraceDrift: the snapshot's drift ratio is measured run over the
// Eq. 1-5 prediction.
func TestJobTraceDrift(t *testing.T) {
	tr := NewJobTrace()
	tr.Bind("j", "", 10)
	tr.MarkStarted()
	time.Sleep(4 * time.Millisecond)
	tr.SetPredicted(2 * time.Millisecond)
	tr.MarkFinished("done", "")
	snap := tr.Snapshot()
	if snap.PredictedRunMS != 2 {
		t.Fatalf("predicted = %v, want 2", snap.PredictedRunMS)
	}
	if snap.DriftRatio < 1.5 {
		t.Fatalf("drift = %v, want >= 1.5 (ran 4ms against a 2ms prediction)", snap.DriftRatio)
	}
}

// TestTraceContextRoundTrip: WithTrace/TraceFrom carry the pointer
// through a context chain; an empty context yields nil.
func TestTraceContextRoundTrip(t *testing.T) {
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(empty) = %v", got)
	}
	tr := NewJobTrace()
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if got := WithTrace(context.Background(), nil); TraceFrom(got) != nil {
		t.Fatal("WithTrace(nil) should carry nothing")
	}
}

// TestJobTraceChromeExport: the Chrome export is valid trace-event JSON
// containing the lifecycle lane and the recorder's pipeline spans.
func TestJobTraceChromeExport(t *testing.T) {
	tr := NewJobTrace()
	tr.Bind("job-x", "", 10)
	tr.MarkStarted()
	tr.Recorder().Add(Span{Stage: exec.StageCompute, Chunk: 0, Worker: 1, Dur: time.Millisecond})
	tr.MarkFinished("done", "")

	var buf strings.Builder
	if err := tr.Chrome().Write(&buf); err != nil {
		t.Fatalf("chrome write: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var sawRun, sawSpan bool
	for _, e := range doc.TraceEvents {
		if e["name"] == "run" && e["cat"] == "lifecycle" {
			sawRun = true
		}
		if e["cat"] == "work" {
			sawSpan = true
		}
	}
	if !sawRun || !sawSpan {
		t.Fatalf("chrome export missing lanes: run=%v span=%v", sawRun, sawSpan)
	}
}

// TestNilTraceAllocFree: every method on a nil trace is an allocation-
// free no-op — the untraced hot path costs nothing.
func TestNilTraceAllocFree(t *testing.T) {
	var tr *JobTrace
	allocs := testing.AllocsPerRun(200, func() {
		tr.Event("e")
		tr.EventDetail("e", "d")
		tr.Bind("id", "tenant", 1)
		tr.MarkHeadBlocked()
		tr.MarkStarted()
		tr.MarkSpilled()
		tr.MarkFinished("done", "")
		tr.SetPredicted(time.Second)
		tr.AddPhase(PhaseQueue, time.Second)
		_, _, _ = tr.Times()
		_ = tr.Recorder()
		_ = tr.ID()
		_ = tr.Terminal()
		_ = tr.PhaseDuration(PhaseRun)
	})
	if allocs != 0 {
		t.Fatalf("nil-trace path allocates %v per run, want 0", allocs)
	}
}

// TestLiveTraceRecordAllocFree: recording events and marks on a live
// trace stays allocation-free after construction (preallocated event
// storage; drops past the cap).
func TestLiveTraceRecordAllocFree(t *testing.T) {
	tr := NewJobTrace()
	allocs := testing.AllocsPerRun(200, func() {
		tr.Event("e")
		tr.MarkHeadBlocked()
		tr.AddPhase(PhaseMerge, time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("live-trace record path allocates %v per run, want 0", allocs)
	}
}
