// Package telemetry is the observability layer for the real execution
// stack: a low-overhead span recorder for per-chunk, per-stage pipeline
// events, a metrics registry (counters, gauges, fixed-bucket histograms),
// an occupancy/stall analyzer that measures copy↔compute overlap and
// compares it against the paper's Section 3.2 analytic model, and
// exporters for the Chrome trace-event format (Perfetto /
// chrome://tracing) and the Prometheus text exposition format.
//
// The package exists because the paper's central claim — T_total =
// max(T_copy, T_comp) when copy and compute overlap perfectly (Eq. 1) —
// is only checkable on a real run if we know *when* each stage ran, not
// just how many bytes it moved. Counters (exec.Counters) prove the data
// flow; spans prove the schedule.
package telemetry

import (
	"sort"
	"sync"
	"time"

	"knlmlm/internal/exec"
)

// Span is one recorded stage execution, with times as offsets from the
// recorder's epoch (monotonic, so host clock steps cannot reorder a run).
type Span struct {
	Stage exec.Stage
	// Chunk is the chunk (or megachunk) index; -1 marks whole-array work
	// such as a final multiway merge.
	Chunk  int
	Worker int
	Start  time.Duration
	Dur    time.Duration
	Bytes  int64
}

// End reports the span's end offset.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// Recorder collects spans from concurrently running pipeline stages. It
// implements exec.Observer, so it can be attached directly to
// exec.Stages.Observer; non-pipeline code (the mlmsort megachunk loop)
// records through Record. Its writers are a pipeline's few stage
// goroutines, each emitting a few spans per megachunk, so one mutex over
// one slice serves them. The zero Recorder is not usable — construct
// with NewRecorder, which fixes the epoch.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Epoch reports the recorder's time origin.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// StageEvent implements exec.Observer.
func (r *Recorder) StageEvent(e exec.StageEvent) {
	r.Record(e.Stage, e.Chunk, e.Worker, e.Start, e.End, e.Bytes)
}

// Record adds one span with wall-clock endpoints.
func (r *Recorder) Record(stage exec.Stage, chunk, worker int, start, end time.Time, bytes int64) {
	r.Add(Span{
		Stage: stage, Chunk: chunk, Worker: worker,
		Start: start.Sub(r.epoch), Dur: end.Sub(start), Bytes: bytes,
	})
}

// Add appends a pre-built span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Len reports the number of recorded spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns the spans sorted by start time (ties broken by worker
// then stage), suitable for analysis and export. The returned slice is a
// copy; recording may continue afterwards.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// BytesByStage sums recorded bytes per stage — the telemetry side of the
// byte-for-byte cross-validation against exec.Counters.
func (r *Recorder) BytesByStage() [exec.NumStages]int64 {
	var out [exec.NumStages]int64
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if int(s.Stage) < len(out) {
			out[s.Stage] += s.Bytes
		}
	}
	return out
}

// busyByStage sums recorded span durations per stage: the work phases
// of a job's trace.
func (r *Recorder) busyByStage() [exec.NumStages]time.Duration {
	var out [exec.NumStages]time.Duration
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if int(s.Stage) < len(out) {
			out[s.Stage] += s.Dur
		}
	}
	return out
}

// Reset drops all recorded spans and restarts the epoch.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.epoch = time.Now()
	r.mu.Unlock()
}
