package report

import (
	"fmt"
	"sort"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/model"
	"knlmlm/internal/telemetry"
)

// StageStats aggregates the spans of one stage.
type StageStats struct {
	Stage exec.Stage
	Spans int
	// Busy is the summed span duration (thread-seconds, not wall time).
	Busy time.Duration
	// Bytes is the summed byte attribution.
	Bytes int64
}

// Analysis is the occupancy/stall summary of one run's spans. The
// central quantities mirror the paper's Section 3.2 vocabulary:
//
//   - TCopy is the wall time during which any copy stage was active
//     (the measured analog of Eq. 2's T_copy);
//   - TComp is the wall time during which compute was active (Eq. 4);
//   - Overlap is the wall time during which copy and compute ran
//     simultaneously — Eq. 1's T_total = max(T_copy, T_comp) holds
//     exactly when the shorter side is fully overlapped with the longer.
type Analysis struct {
	Spans  int
	Chunks int
	// Wall is last span end minus first span start.
	Wall  time.Duration
	Stage [exec.NumStages]StageStats
	// TCopy and TComp are union (wall-clock) durations, not thread-time.
	TCopy   time.Duration
	TComp   time.Duration
	Overlap time.Duration
	// OverlapEfficiency is Overlap / min(TCopy, TComp): 1.0 means the
	// shorter side ran entirely under the longer one, which is the
	// model's perfect-pipelining assumption.
	OverlapEfficiency float64
	// PipelineEfficiency is max(TCopy, TComp) / Wall: how close the run
	// came to Eq. 1's T_total = max(T_copy, T_comp).
	PipelineEfficiency float64
	// CopyBound reports whether copy occupied more wall time than
	// compute.
	CopyBound bool
}

// interval is a closed-open time range.
type interval struct{ lo, hi time.Duration }

// unionDuration sums the coverage of the intervals (overlaps merged).
func unionDuration(ivs []interval) time.Duration {
	merged := mergeIntervals(ivs)
	var total time.Duration
	for _, iv := range merged {
		total += iv.hi - iv.lo
	}
	return total
}

func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].lo < sorted[j].lo })
	out := sorted[:1]
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersectDuration reports the total time covered by both merged sets.
func intersectDuration(a, b []interval) time.Duration {
	i, j := 0, 0
	var total time.Duration
	for i < len(a) && j < len(b) {
		lo := a[i].lo
		if b[j].lo > lo {
			lo = b[j].lo
		}
		hi := a[i].hi
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return total
}

// Analyze computes the occupancy/stall summary of the spans.
func Analyze(spans []telemetry.Span) Analysis {
	var a Analysis
	a.Spans = len(spans)
	if len(spans) == 0 {
		return a
	}
	first, last := spans[0].Start, spans[0].End()
	chunks := map[int]bool{}
	var copyIvs, compIvs []interval
	for _, s := range spans {
		if s.Start < first {
			first = s.Start
		}
		if e := s.End(); e > last {
			last = e
		}
		if int(s.Stage) < len(a.Stage) {
			st := &a.Stage[s.Stage]
			st.Stage = s.Stage
			st.Spans++
			st.Busy += s.Dur
			st.Bytes += s.Bytes
		}
		if s.Chunk >= 0 {
			chunks[s.Chunk] = true
		}
		iv := interval{s.Start, s.End()}
		switch s.Stage {
		case exec.StageCopyIn, exec.StageCopyOut:
			copyIvs = append(copyIvs, iv)
		case exec.StageCompute:
			compIvs = append(compIvs, iv)
		}
	}
	for i := range a.Stage {
		a.Stage[i].Stage = exec.Stage(i)
	}
	a.Chunks = len(chunks)
	a.Wall = last - first

	mergedCopy := mergeIntervals(copyIvs)
	mergedComp := mergeIntervals(compIvs)
	a.TCopy = unionDuration(copyIvs)
	a.TComp = unionDuration(compIvs)
	a.Overlap = intersectDuration(mergedCopy, mergedComp)
	a.CopyBound = a.TCopy > a.TComp

	shorter := a.TCopy
	if a.TComp < shorter {
		shorter = a.TComp
	}
	if shorter > 0 {
		a.OverlapEfficiency = float64(a.Overlap) / float64(shorter)
	}
	longer := a.TCopy
	if a.TComp > longer {
		longer = a.TComp
	}
	if a.Wall > 0 {
		a.PipelineEfficiency = float64(longer) / float64(a.Wall)
	}
	return a
}

// ChunkLatencies reports, per chunk index, the wall time from the chunk's
// first work span start to its last work span end (wait spans excluded;
// whole-array spans with chunk -1 ignored), in chunk order.
func ChunkLatencies(spans []telemetry.Span) []time.Duration {
	type bound struct {
		lo, hi time.Duration
		seen   bool
	}
	bounds := map[int]*bound{}
	for _, s := range spans {
		if s.Chunk < 0 || s.Stage.IsWait() {
			continue
		}
		b, ok := bounds[s.Chunk]
		if !ok {
			b = &bound{}
			bounds[s.Chunk] = b
		}
		if !b.seen || s.Start < b.lo {
			b.lo = s.Start
		}
		if e := s.End(); !b.seen || e > b.hi {
			b.hi = e
		}
		b.seen = true
	}
	idxs := make([]int, 0, len(bounds))
	for i := range bounds {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]time.Duration, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, bounds[i].hi-bounds[i].lo)
	}
	return out
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.6f", d.Seconds()) }

// StallReport renders the per-stage busy/starvation breakdown and the
// overlap summary as a table.
func (a Analysis) StallReport() *Table {
	t := &Table{
		Title:   "Pipeline occupancy and stalls",
		Headers: []string{"Stage", "Spans", "Busy(s)", "Bytes"},
	}
	for _, st := range a.Stage {
		if st.Spans == 0 {
			continue
		}
		t.AddRow(st.Stage.String(), fmt.Sprintf("%d", st.Spans), seconds(st.Busy), fmt.Sprintf("%d", st.Bytes))
	}
	t.AddRow("— wall", "", seconds(a.Wall), "")
	t.AddRow("— T_copy (union)", "", seconds(a.TCopy), "")
	t.AddRow("— T_comp (union)", "", seconds(a.TComp), "")
	t.AddRow("— copy∩comp overlap", "", seconds(a.Overlap), "")
	t.AddRow("— overlap efficiency", "", fmt.Sprintf("%.3f", a.OverlapEfficiency), "")
	t.AddRow("— pipeline efficiency", "", fmt.Sprintf("%.3f", a.PipelineEfficiency), "")
	return t
}

// ModelDriftReport compares the measured run against a Section 3.2 model
// prediction. Absolute host seconds are not comparable to simulated KNL
// seconds, so the report leads with the scale-free quantities the model
// actually pins down: which side bounds the run, the copy:compute ratio,
// and how close T_total comes to max(T_copy, T_comp) (the model assumes
// exactly 1.0).
func (a Analysis) ModelDriftReport(pred model.Prediction) *Table {
	t := &Table{
		Title:   "Measured vs Section 3.2 model (Eq. 1–5)",
		Headers: []string{"Quantity", "Measured", "Model", "Note"},
	}
	ratio := func(num, den time.Duration) string {
		if den <= 0 {
			return "inf"
		}
		return fmt.Sprintf("%.3f", float64(num)/float64(den))
	}
	predRatio := "inf"
	if pred.TComp > 0 {
		predRatio = fmt.Sprintf("%.3f", float64(pred.TCopy)/float64(pred.TComp))
	}
	bound := func(copyBound bool) string {
		if copyBound {
			return "copy-bound"
		}
		return "compute-bound"
	}
	agree := "agree"
	if a.CopyBound != pred.CopyBound {
		agree = "DISAGREE"
	}
	t.AddRow("bounding side", bound(a.CopyBound), bound(pred.CopyBound), agree)
	t.AddRow("T_copy / T_comp", ratio(a.TCopy, a.TComp), predRatio, "scale-free")
	t.AddRow("T_total / max(T_copy,T_comp)",
		fmt.Sprintf("%.3f", invOrZero(a.PipelineEfficiency)),
		"1.000", "Eq. 1 assumes perfect overlap")
	t.AddRow("T_copy (s)", seconds(a.TCopy), fmt.Sprintf("%.3f", pred.TCopy.Seconds()), "host vs modeled KNL")
	t.AddRow("T_comp (s)", seconds(a.TComp), fmt.Sprintf("%.3f", pred.TComp.Seconds()), "host vs modeled KNL")
	t.AddRow("T_total (s)", seconds(a.Wall), fmt.Sprintf("%.3f", pred.TTotal.Seconds()), "host vs modeled KNL")
	return t
}

func invOrZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return 1 / v
}

// Publish computes the spans' analysis and writes it into the registry:
// per-stage busy-seconds and byte counters, wait-time histograms, a
// chunk-latency histogram, and the overlap/efficiency gauges. It returns
// the analysis so callers can render reports without re-analyzing.
func Publish(reg *telemetry.Registry, spans []telemetry.Span) Analysis {
	a := Analyze(spans)
	for _, st := range a.Stage {
		if st.Spans == 0 {
			continue
		}
		lbl := telemetry.Labels{"stage": st.Stage.String()}
		reg.Counter("pipeline_stage_spans_total", "Recorded spans per stage.", lbl).Add(int64(st.Spans))
		reg.Counter("pipeline_stage_bytes_total", "Bytes moved or touched per stage.", lbl).Add(st.Bytes)
		reg.Gauge("pipeline_stage_busy_seconds", "Summed span duration per stage (thread-seconds).", lbl).Set(st.Busy.Seconds())
	}
	waitBuckets := telemetry.DefLatencyBuckets()
	for _, s := range spans {
		if s.Stage.IsWait() {
			reg.Histogram("pipeline_stage_wait_seconds",
				"Starvation time per wait event.",
				telemetry.Labels{"stage": s.Stage.String()}, waitBuckets).Observe(s.Dur.Seconds())
		}
	}
	latHist := reg.Histogram("pipeline_chunk_latency_seconds",
		"Per-chunk wall time from first work span to last.", nil, telemetry.DefLatencyBuckets())
	for _, d := range ChunkLatencies(spans) {
		latHist.Observe(d.Seconds())
	}
	reg.Gauge("pipeline_wall_seconds", "Run wall time covered by spans.", nil).Set(a.Wall.Seconds())
	reg.Gauge("pipeline_copy_union_seconds", "Wall time with any copy stage active (measured T_copy).", nil).Set(a.TCopy.Seconds())
	reg.Gauge("pipeline_compute_union_seconds", "Wall time with compute active (measured T_comp).", nil).Set(a.TComp.Seconds())
	reg.Gauge("pipeline_overlap_seconds", "Wall time with copy and compute simultaneously active.", nil).Set(a.Overlap.Seconds())
	reg.Gauge("pipeline_overlap_efficiency", "Overlap / min(T_copy, T_comp); 1.0 = model's assumption.", nil).Set(a.OverlapEfficiency)
	reg.Gauge("pipeline_efficiency", "max(T_copy, T_comp) / wall; 1.0 = Eq. 1 exact.", nil).Set(a.PipelineEfficiency)
	reg.Gauge("pipeline_chunks", "Distinct chunks observed.", nil).Set(float64(a.Chunks))
	return a
}
