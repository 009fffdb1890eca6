// Job lifecycle tracing: a JobTrace follows one service job through
// every layer of the stack — HTTP receive, scheduler admission, queueing,
// lease acquisition, the staged pipeline (reusing the per-chunk Span
// recorder), the spill tier, and result streaming — and reduces the
// journey to typed events plus a per-phase time decomposition.
//
// The design mirrors the Span recorder's discipline: a nil *JobTrace is a
// valid receiver on which every method is an allocation-free no-op, so
// untraced paths pay nothing; a live trace takes one mutex and writes into
// preallocated storage (events past the fixed capacity are counted as
// dropped, never grown), so the hot paths stay allocation-free too.
package telemetry

import (
	"cmp"
	"context"
	"sync"
	"time"

	"knlmlm/internal/exec"
)

// Phase names one slice of a job's lifetime. The first four are wall
// phases: non-overlapping submit→terminal segments whose durations sum to
// the job's total latency (the property /debug/overload relies on to
// decompose p99). The rest are work phases (per-stage thread time inside
// the run, which overlaps under pipelining) and post-terminal phases
// (spill merge and result streaming happen after the job is Done).
type Phase uint8

const (
	// PhaseAdmit is submission processing: trace birth to admission.
	PhaseAdmit Phase = iota
	// PhaseQueue is admission to first head-of-line blockage (or to
	// dispatch, if the job never blocked at the head).
	PhaseQueue
	// PhaseLease is time blocked at the head of the queue waiting for a
	// worker slot or an MCDRAM/disk budget lease.
	PhaseLease
	// PhaseRun is pipeline wall time, dispatch to terminal.
	PhaseRun
	// PhaseCopyIn/PhaseCompute/PhaseCopyOut are per-stage busy thread-
	// seconds inside the run, summed from the job's Span recorder.
	PhaseCopyIn
	PhaseCompute
	PhaseCopyOut
	// PhaseSpillWrite is copy-out busy time when the destination is a
	// disk run file (spill-class phase 1) rather than DDR.
	PhaseSpillWrite
	// PhaseMerge is the deferred k-way merge's non-sink time during
	// StreamResult (spill-class jobs only; post-terminal).
	PhaseMerge
	// PhaseStream is time spent delivering result bytes to the consumer's
	// sink (the HTTP response writer, for served jobs; post-terminal).
	PhaseStream
	// NumPhases is the number of distinct phases (for dense indexing).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"admit", "queue", "lease", "run",
	"copy-in", "compute", "copy-out", "spill-write",
	"merge", "stream",
}

// String reports the phase's canonical label.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// WallPhases lists the non-overlapping lifecycle phases whose durations
// sum to a terminal job's submit→terminal latency.
func WallPhases() []Phase { return []Phase{PhaseAdmit, PhaseQueue, PhaseLease, PhaseRun} }

// WorkPhases lists the thread-time phases recorded inside PhaseRun.
func WorkPhases() []Phase {
	return []Phase{PhaseCopyIn, PhaseCompute, PhaseCopyOut, PhaseSpillWrite}
}

// PostPhases lists the phases that occur after the job is terminal.
func PostPhases() []Phase { return []Phase{PhaseMerge, PhaseStream} }

// traceEventCap bounds a trace's event storage. Events past the cap are
// dropped (and counted), never appended, so recording stays allocation-
// free after construction.
const traceEventCap = 32

// TraceEvent is one typed lifecycle event, stamped as an offset from the
// trace's birth.
type TraceEvent struct {
	At     time.Duration `json:"at_ns"`
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
}

// JobTrace is the request-scoped lifecycle record of one job. Construct
// with NewJobTrace at the edge (the HTTP handler), propagate via context
// (WithTrace/TraceFrom) or JobSpec, and read back through Snapshot. All
// methods are safe for concurrent use and are no-ops on a nil receiver.
type JobTrace struct {
	born time.Time
	rec  *Recorder

	mu      sync.Mutex
	id      string
	tenant  string
	n       int
	spilled bool

	events  []TraceEvent
	dropped int

	// Lifecycle stamps, as offsets from born; zero means "not reached".
	// They are the job's only lifecycle record: wallLocked cuts the wall
	// phases from them, and Times reports them as wall-clock times.
	enqueuedAt    time.Duration
	headBlockedAt time.Duration
	startedAt     time.Duration
	finishedAt    time.Duration

	// post accumulates the post-terminal phases, indexed from PhaseMerge
	// (work phases are summed from rec when read).
	post [NumPhases - PhaseMerge]time.Duration

	predicted time.Duration
	state     string
	errmsg    string
}

// NewJobTrace returns a live trace born now, with its own Span recorder
// sharing the same epoch.
func NewJobTrace() *JobTrace {
	t := &JobTrace{
		born:   time.Now(),
		events: make([]TraceEvent, 0, traceEventCap),
	}
	t.rec = &Recorder{epoch: t.born}
	return t
}

// Recorder reports the trace's per-chunk Span recorder (nil on a nil
// trace), suitable for exec.Stages.Observer / mlmsort RealOptions.
func (t *JobTrace) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// since reports the offset of now from birth, floored at 1ns so a stamp
// can never be confused with the zero "not reached" sentinel.
func (t *JobTrace) since() time.Duration {
	d := time.Since(t.born)
	if d <= 0 {
		d = 1
	}
	return d
}

// appendLocked records an event without allocating past the fixed cap.
func (t *JobTrace) appendLocked(name, detail string) {
	if len(t.events) == cap(t.events) {
		t.dropped++
		return
	}
	t.events = append(t.events, TraceEvent{At: t.since(), Name: name, Detail: detail})
}

// Event records a named lifecycle event.
func (t *JobTrace) Event(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.appendLocked(name, "")
	t.mu.Unlock()
}

// EventDetail records a named event with a preformatted detail string.
func (t *JobTrace) EventDetail(name, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.appendLocked(name, detail)
	t.mu.Unlock()
}

// Bind attaches the scheduler-assigned identity at admission and stamps
// the end of the admit phase.
func (t *JobTrace) Bind(id, tenant string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id, t.tenant, t.n = id, tenant, n
	if t.enqueuedAt == 0 {
		t.enqueuedAt = t.since()
	}
	t.appendLocked("admitted", "")
	t.mu.Unlock()
}

// ID reports the bound job id ("" before Bind or on a nil trace).
func (t *JobTrace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// MarkHeadBlocked stamps the first time the job reached the head of the
// queue but could not dispatch (no worker slot or no budget lease); the
// queue→lease phase boundary. Idempotent: only the first call stamps.
func (t *JobTrace) MarkHeadBlocked() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.headBlockedAt == 0 {
		t.headBlockedAt = t.since()
		t.appendLocked("head-blocked", "")
	}
	t.mu.Unlock()
}

// MarkStarted stamps dispatch onto a pipeline.
func (t *JobTrace) MarkStarted() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.startedAt == 0 {
		t.startedAt = t.since()
		t.appendLocked("dispatched", "")
	}
	t.mu.Unlock()
}

// MarkSpilled flags the job as spill-class.
func (t *JobTrace) MarkSpilled() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spilled = true
	t.appendLocked("spill-class", "")
	t.mu.Unlock()
}

// SetPredicted records the Eq. 1-5 completion estimate for the run phase
// (the model's T_total for this job's bytes at its thread share).
func (t *JobTrace) SetPredicted(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.predicted = d
	t.mu.Unlock()
}

// AddPhase accumulates duration into a post-terminal phase (merge or
// stream). Wall phases are cut from the lifecycle stamps and work phases
// summed from the recorder's spans, so those ignore AddPhase.
func (t *JobTrace) AddPhase(p Phase, d time.Duration) {
	if t == nil || p < PhaseMerge || p >= NumPhases || d <= 0 {
		return
	}
	t.mu.Lock()
	t.post[p-PhaseMerge] += d
	t.mu.Unlock()
}

// MarkFinished stamps the terminal state. errmsg carries the terminal
// error's text ("" on success). Idempotent: only the first call stamps.
func (t *JobTrace) MarkFinished(state, errmsg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finishedAt == 0 {
		t.finishedAt = t.since()
		t.state = state
		t.errmsg = errmsg
		t.appendLocked("terminal", state)
	}
	t.mu.Unlock()
}

// Times reports the lifecycle stamps as wall-clock times: admission,
// dispatch and terminal, each zero where not reached (and all zero on a
// nil trace).
func (t *JobTrace) Times() (enqueued, started, finished time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := func(d time.Duration) time.Time {
		if d == 0 {
			return time.Time{}
		}
		return t.born.Add(d)
	}
	return at(t.enqueuedAt), at(t.startedAt), at(t.finishedAt)
}

// PhaseDuration reports one phase's duration (see phasesLocked). Zero on
// a nil trace or an unreached phase.
func (t *JobTrace) PhaseDuration(p Phase) time.Duration {
	if t == nil || p >= NumPhases {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d, _ := t.phasesLocked()
	return d[p]
}

// wallLocked is the one place the wall phases are cut: wall phase p runs
// from b[p] to b[p+1], and b[PhaseRun+1] is the job's end — its terminal
// stamp, or now while it is live. Admit ends at admission; queue at the
// first head-of-line blockage, else at dispatch; lease at dispatch; run
// at the end. A boundary not reached falls to the end, so a job that
// ended before dispatch has its last reached phase run to its terminal
// stamp and every later phase empty. The phases sum to the end.
func (t *JobTrace) wallLocked() (b [PhaseRun + 2]time.Duration) {
	end := t.finishedAt
	if end == 0 {
		end = t.since()
	}
	b[PhaseQueue] = t.enqueuedAt
	b[PhaseLease] = cmp.Or(t.headBlockedAt, t.startedAt, end)
	b[PhaseRun] = cmp.Or(t.startedAt, end)
	b[PhaseRun+1] = end
	for i := 1; i < len(b); i++ {
		b[i] = max(b[i], b[i-1])
	}
	return b
}

// phasesLocked reports every phase's duration and the job's total: the
// wall phases as wallLocked cuts them, the work phases summed from the
// recorder's spans (copy-out counts as spill-write when the job spilled
// its runs to disk), the post-terminal phases as AddPhase accumulated
// them.
func (t *JobTrace) phasesLocked() (d [NumPhases]time.Duration, total time.Duration) {
	b := t.wallLocked()
	for p := PhaseAdmit; p <= PhaseRun; p++ {
		d[p] = b[p+1] - b[p]
	}
	busy := t.rec.busyByStage()
	d[PhaseCopyIn] = busy[exec.StageCopyIn]
	d[PhaseCompute] = busy[exec.StageCompute]
	out := PhaseCopyOut
	if t.spilled {
		out = PhaseSpillWrite
	}
	d[out] = busy[exec.StageCopyOut]
	copy(d[PhaseMerge:], t.post[:])
	return d, b[PhaseRun+1]
}

// TraceSnapshot is the JSON wire form of a trace, served by
// GET /debug/jobs/{id}/trace.
type TraceSnapshot struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant,omitempty"`
	N         int       `json:"n"`
	Spilled   bool      `json:"spilled,omitempty"`
	Submitted time.Time `json:"submitted"`
	// State is the terminal state ("" while the job is still live).
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// TotalMS is submit→terminal latency (submit→now while live).
	TotalMS float64 `json:"total_ms"`
	// PhasesMS decomposes the lifetime: wall phases (admit/queue/lease/
	// run) sum to TotalMS; work phases are thread-time inside run; merge/
	// stream are post-terminal.
	PhasesMS map[string]float64 `json:"phases_ms"`
	// PredictedRunMS is the Eq. 1-5 completion estimate for the run
	// phase; DriftRatio is measured run over predicted (0 = no estimate).
	PredictedRunMS float64      `json:"predicted_run_ms,omitempty"`
	DriftRatio     float64      `json:"drift_ratio,omitempty"`
	Events         []TraceEvent `json:"events"`
	DroppedEvents  int          `json:"dropped_events,omitempty"`
	SpanCount      int          `json:"span_count"`
}

// Terminal reports whether the trace has reached a terminal state.
func (t *JobTrace) Terminal() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finishedAt != 0
}

// Snapshot renders the trace's current state. Safe while the job is
// still being traced; the returned value is a copy.
func (t *JobTrace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	phases, total := t.phasesLocked()
	snap := TraceSnapshot{
		ID:            t.id,
		Tenant:        t.tenant,
		N:             t.n,
		Spilled:       t.spilled,
		Submitted:     t.born,
		State:         t.state,
		Error:         t.errmsg,
		TotalMS:       durMS(total),
		PhasesMS:      make(map[string]float64, NumPhases),
		Events:        append([]TraceEvent(nil), t.events...),
		DroppedEvents: t.dropped,
	}
	if t.rec != nil {
		snap.SpanCount = t.rec.Len()
	}
	for p, d := range phases {
		if d > 0 || Phase(p) <= PhaseRun {
			snap.PhasesMS[Phase(p).String()] = durMS(d)
		}
	}
	if t.predicted > 0 {
		snap.PredictedRunMS = durMS(t.predicted)
		if run := phases[PhaseRun]; run > 0 {
			snap.DriftRatio = float64(run) / float64(t.predicted)
		}
	}
	return snap
}

// Chrome renders the trace as a Chrome trace-event timeline: one lane for
// the lifecycle wall phases (the bars PhaseDuration measures), plus the
// recorder's per-chunk pipeline spans (reusing the standard span export)
// under the same process.
func (t *JobTrace) Chrome() *ChromeTrace {
	ct := &ChromeTrace{}
	if t == nil {
		return ct
	}
	t.mu.Lock()
	id, b := t.id, t.wallLocked()
	events := append([]TraceEvent(nil), t.events...)
	t.mu.Unlock()
	name := "job " + id
	if id == "" {
		name = "job (unbound)"
	}
	ct.AddProcessName(1, name)
	const lifecycleTID = 1000
	ct.AddThreadName(1, lifecycleTID, "lifecycle")
	for p := PhaseAdmit; p <= PhaseRun; p++ {
		if b[p+1] <= b[p] {
			continue
		}
		ct.Add(ChromeEvent{
			Name: p.String(), Cat: "lifecycle", Ph: "X",
			TS: micros(b[p]), Dur: micros(b[p+1] - b[p]),
			PID: 1, TID: lifecycleTID,
		})
	}
	for _, e := range events {
		ct.Add(ChromeEvent{
			Name: e.Name, Cat: "event", Ph: "i",
			TS: micros(e.At), PID: 1, TID: lifecycleTID,
		})
	}
	ct.AddSpans(1, t.rec.Spans())
	return ct
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceKey is the context key WithTrace stores under.
type traceKey struct{}

// WithTrace returns a context carrying the trace, the propagation vehicle
// from the HTTP edge down through scheduler admission.
func WithTrace(ctx context.Context, t *JobTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom reports the context's trace (nil when none is attached), so
// every layer can record without threading the trace explicitly.
func TraceFrom(ctx context.Context) *JobTrace {
	t, _ := ctx.Value(traceKey{}).(*JobTrace)
	return t
}
