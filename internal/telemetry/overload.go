// Overload attribution: aggregate per-phase time so that when the service
// passes its goodput knee, the collapse is diagnosable — "p99 is queue
// wait" and "p99 is spill write" demand opposite remedies (admission
// control vs. more disk bandwidth). Two complementary views are built
// from the same JobTrace data: registry histograms (job_phase_seconds,
// scrapeable by loadgen and Prometheus) and an on-demand report over the
// flight recorder's window (GET /debug/overload), which also checks each
// job's measured run phase against its Eq. 1-5 completion estimate.
package telemetry

import (
	"math"
	"sort"
	"time"
)

// PhaseMetrics publishes per-phase duration histograms and the model
// drift histogram into a Registry. A nil *PhaseMetrics is a valid no-op
// receiver, so callers need not guard instrumentation sites.
type PhaseMetrics struct {
	phase [NumPhases]*Histogram
	drift *Histogram
}

// NewPhaseMetrics registers the job_phase_seconds{phase=...} histogram
// family and job_model_drift_ratio in r. Registering twice against the
// same registry returns handles to the same underlying series.
func NewPhaseMetrics(r *Registry) *PhaseMetrics {
	if r == nil {
		return nil
	}
	pm := &PhaseMetrics{}
	for p := Phase(0); p < NumPhases; p++ {
		pm.phase[p] = r.Histogram(
			"job_phase_seconds",
			"Per-job time spent in each lifecycle phase (wall phases admit/queue/lease/run sum to total latency; copy-in/compute/copy-out/spill-write are thread-seconds inside run; merge/stream are post-terminal).",
			Labels{"phase": p.String()},
			DefLatencyBuckets(),
		)
	}
	pm.drift = r.Histogram(
		"job_model_drift_ratio",
		"Measured run-phase wall time over the Eq. 1-5 predicted completion time (1.0 = model exact; >1 = slower than predicted).",
		nil,
		[]float64{0.25, 0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 2, 3, 5, 10},
	)
	return pm
}

// ObserveTrace records a terminal job's wall and work phases, plus model
// drift when the trace carries a prediction. Call once per job, at
// terminal. Post-terminal phases (merge/stream) are observed separately
// via ObservePhase as they complete.
func (pm *PhaseMetrics) ObserveTrace(t *JobTrace) {
	if pm == nil || t == nil {
		return
	}
	t.mu.Lock()
	d, _ := t.phasesLocked()
	pred := t.predicted
	t.mu.Unlock()
	for p := PhaseAdmit; p < PhaseMerge; p++ {
		if d[p] > 0 {
			pm.phase[p].Observe(d[p].Seconds())
		}
	}
	if run := d[PhaseRun]; pred > 0 && run > 0 {
		pm.drift.Observe(float64(run) / float64(pred))
	}
}

// ObservePhase records one phase duration directly (used for the
// post-terminal merge and stream phases, which complete after
// ObserveTrace has run).
func (pm *PhaseMetrics) ObservePhase(p Phase, d time.Duration) {
	if pm == nil || p >= NumPhases || d <= 0 {
		return
	}
	pm.phase[p].Observe(d.Seconds())
}

// PhaseStat aggregates one phase across the report's job window.
type PhaseStat struct {
	Phase string `json:"phase"`
	// Jobs is how many jobs spent any time in this phase.
	Jobs int `json:"jobs"`
	// TotalMS is the summed duration across jobs; MeanMS and MaxMS
	// describe its distribution.
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	MaxMS   float64 `json:"max_ms"`
	// Share is this phase's fraction of the group total (wall phases:
	// fraction of summed latency; work phases: fraction of summed
	// thread-time; post phases: fraction of summed post time).
	Share float64 `json:"share"`
}

// DriftStat summarizes predicted-vs-actual run time across jobs that
// carried an Eq. 1-5 estimate.
type DriftStat struct {
	Jobs int     `json:"jobs"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Max  float64 `json:"max"`
	// Over is the count of jobs whose measured run exceeded the
	// prediction by more than 25% — the model's miss rate under load.
	Over float64 `json:"over_1_25_share"`
}

// OverloadReport decomposes the flight-recorder window's latency into
// phases. It is the serving layer's answer to "where did the time go
// past the knee" and the input signal for admission control.
type OverloadReport struct {
	// Jobs and Terminal count the traces considered; only terminal jobs
	// contribute to the decomposition.
	Jobs     int `json:"jobs"`
	Terminal int `json:"terminal"`
	Spilled  int `json:"spilled"`
	Failed   int `json:"failed"`

	// Latency percentiles over terminal jobs' submit→terminal time.
	LatencyMS struct {
		Mean float64 `json:"mean"`
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
		P99  float64 `json:"p99"`
		Max  float64 `json:"max"`
	} `json:"latency_ms"`

	// WallPhases decomposes summed latency (its Share values sum to ~1);
	// WorkPhases decomposes thread time inside the run phase; PostPhases
	// covers merge and stream, which land after terminal.
	WallPhases []PhaseStat `json:"wall_phases"`
	WorkPhases []PhaseStat `json:"work_phases"`
	PostPhases []PhaseStat `json:"post_phases"`

	// DominantPhase is the wall phase with the largest share — the
	// headline attribution.
	DominantPhase string `json:"dominant_phase"`

	// TailJobs lists, for jobs at or above the p95 latency, which wall
	// phase dominated each — attribution of the tail specifically, since
	// the tail's bottleneck often differs from the mean's.
	TailJobs []TailJob `json:"tail_jobs,omitempty"`

	// Drift compares measured run phases against Eq. 1-5 predictions.
	Drift *DriftStat `json:"model_drift,omitempty"`
}

// TailJob attributes one slow job.
type TailJob struct {
	ID            string  `json:"id"`
	TotalMS       float64 `json:"total_ms"`
	DominantPhase string  `json:"dominant_phase"`
	DominantMS    float64 `json:"dominant_ms"`
	Spilled       bool    `json:"spilled,omitempty"`
}

// BuildOverloadReport reduces a set of job traces (typically the flight
// recorder's Snapshot) to an OverloadReport.
func BuildOverloadReport(traces []*JobTrace) OverloadReport {
	var rep OverloadReport
	rep.Jobs = len(traces)

	type jobRow struct {
		id      string
		total   time.Duration
		wall    [NumPhases]time.Duration
		spilled bool
	}
	var rows []jobRow
	var lat []float64
	var drifts []float64

	for _, t := range traces {
		if t == nil || !t.Terminal() {
			continue
		}
		rep.Terminal++
		t.mu.Lock()
		row := jobRow{id: t.id, spilled: t.spilled}
		row.wall, row.total = t.phasesLocked()
		pred := t.predicted
		failed := t.state != "" && t.state != "done"
		t.mu.Unlock()
		if row.spilled {
			rep.Spilled++
		}
		if failed {
			rep.Failed++
		}
		if pred > 0 && row.wall[PhaseRun] > 0 {
			drifts = append(drifts, float64(row.wall[PhaseRun])/float64(pred))
		}
		rows = append(rows, row)
		lat = append(lat, durMS(row.total))
	}
	if len(rows) == 0 {
		return rep
	}

	sort.Float64s(lat)
	rep.LatencyMS.Mean = mean(lat)
	rep.LatencyMS.P50 = pct(lat, 0.50)
	rep.LatencyMS.P95 = pct(lat, 0.95)
	rep.LatencyMS.P99 = pct(lat, 0.99)
	rep.LatencyMS.Max = lat[len(lat)-1]

	group := func(phases []Phase) []PhaseStat {
		stats := make([]PhaseStat, 0, len(phases))
		var groupTotal time.Duration
		for _, p := range phases {
			for _, r := range rows {
				groupTotal += r.wall[p]
			}
		}
		for _, p := range phases {
			st := PhaseStat{Phase: p.String()}
			var total, max time.Duration
			for _, r := range rows {
				d := r.wall[p]
				if d <= 0 {
					continue
				}
				st.Jobs++
				total += d
				if d > max {
					max = d
				}
			}
			st.TotalMS = durMS(total)
			st.MaxMS = durMS(max)
			if st.Jobs > 0 {
				st.MeanMS = st.TotalMS / float64(st.Jobs)
			}
			if groupTotal > 0 {
				st.Share = float64(total) / float64(groupTotal)
			}
			stats = append(stats, st)
		}
		return stats
	}
	rep.WallPhases = group(WallPhases())
	rep.WorkPhases = group(WorkPhases())
	rep.PostPhases = group(PostPhases())

	best := -1.0
	for _, st := range rep.WallPhases {
		if st.Share > best {
			best = st.Share
			rep.DominantPhase = st.Phase
		}
	}

	// Tail attribution: jobs at or above p95 latency, each labelled with
	// its own dominant wall phase, slowest first, capped for readability.
	thresh := time.Duration(rep.LatencyMS.P95 * float64(time.Millisecond))
	for _, r := range rows {
		if r.total < thresh {
			continue
		}
		tj := TailJob{ID: r.id, TotalMS: durMS(r.total), Spilled: r.spilled}
		var top time.Duration
		for _, p := range WallPhases() {
			if r.wall[p] > top {
				top = r.wall[p]
				tj.DominantPhase = p.String()
				tj.DominantMS = durMS(r.wall[p])
			}
		}
		rep.TailJobs = append(rep.TailJobs, tj)
	}
	sort.Slice(rep.TailJobs, func(i, j int) bool { return rep.TailJobs[i].TotalMS > rep.TailJobs[j].TotalMS })
	if len(rep.TailJobs) > 16 {
		rep.TailJobs = rep.TailJobs[:16]
	}

	if len(drifts) > 0 {
		sort.Float64s(drifts)
		d := &DriftStat{Jobs: len(drifts), Mean: mean(drifts)}
		d.P50 = pct(drifts, 0.50)
		d.P95 = pct(drifts, 0.95)
		d.Max = drifts[len(drifts)-1]
		over := 0
		for _, v := range drifts {
			if v > 1.25 {
				over++
			}
		}
		d.Over = float64(over) / float64(len(drifts))
		rep.Drift = d
	}
	return rep
}

func mean(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range sorted {
		s += v
	}
	return s / float64(len(sorted))
}

// pct reports the q-quantile of an ascending-sorted slice (nearest-rank).
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
