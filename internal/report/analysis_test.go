package report

import (
	"math"
	"strings"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/model"
	"knlmlm/internal/telemetry"
)

const ms = time.Millisecond

// pipelineSpans builds a hand-crafted 3-chunk pipeline:
//
//	copy-in:  [0,10) [10,20) [20,30)
//	compute:        [10,25)  [25,40) [40,55)
//	copy-out:               [25,30) [40,45) [55,60)
//
// T_copy union = 30 (in) + 15-overlapping outs... computed below.
func pipelineSpans() []telemetry.Span {
	mk := func(st exec.Stage, chunk int, lo, hi time.Duration, bytes int64) telemetry.Span {
		return telemetry.Span{Stage: st, Chunk: chunk, Worker: int(st), Start: lo, Dur: hi - lo, Bytes: bytes}
	}
	return []telemetry.Span{
		mk(exec.StageCopyIn, 0, 0, 10*ms, 80),
		mk(exec.StageCopyIn, 1, 10*ms, 20*ms, 80),
		mk(exec.StageCopyIn, 2, 20*ms, 30*ms, 80),
		mk(exec.StageCompute, 0, 10*ms, 25*ms, 160),
		mk(exec.StageCompute, 1, 25*ms, 40*ms, 160),
		mk(exec.StageCompute, 2, 40*ms, 55*ms, 160),
		mk(exec.StageCopyOut, 0, 25*ms, 30*ms, 80),
		mk(exec.StageCopyOut, 1, 40*ms, 45*ms, 80),
		mk(exec.StageCopyOut, 2, 55*ms, 60*ms, 80),
		mk(exec.StageComputeWait, 0, 0, 10*ms, 0),
	}
}

func TestAnalyzePipeline(t *testing.T) {
	a := Analyze(pipelineSpans())
	if a.Chunks != 3 {
		t.Errorf("chunks = %d, want 3", a.Chunks)
	}
	if a.Wall != 60*ms {
		t.Errorf("wall = %v, want 60ms", a.Wall)
	}
	// Copy union: [0,30) ∪ {[25,30),[40,45),[55,60)} = [0,30)+[40,45)+[55,60) = 40ms.
	if a.TCopy != 40*ms {
		t.Errorf("TCopy = %v, want 40ms", a.TCopy)
	}
	// Compute union: [10,55) = 45ms.
	if a.TComp != 45*ms {
		t.Errorf("TComp = %v, want 45ms", a.TComp)
	}
	// Overlap: copy∩comp = [10,30) ∪ [40,45) = 25ms.
	if a.Overlap != 25*ms {
		t.Errorf("overlap = %v, want 25ms", a.Overlap)
	}
	if a.CopyBound {
		t.Error("run should be compute-bound")
	}
	if want := 25.0 / 40.0; math.Abs(a.OverlapEfficiency-want) > 1e-12 {
		t.Errorf("overlap efficiency = %v, want %v", a.OverlapEfficiency, want)
	}
	if want := 45.0 / 60.0; math.Abs(a.PipelineEfficiency-want) > 1e-12 {
		t.Errorf("pipeline efficiency = %v, want %v", a.PipelineEfficiency, want)
	}
	if st := a.Stage[exec.StageComputeWait]; st.Busy != 10*ms || st.Spans != 1 {
		t.Errorf("compute-wait stats = %+v", st)
	}
	if st := a.Stage[exec.StageCopyIn]; st.Bytes != 240 {
		t.Errorf("copy-in bytes = %d, want 240", st.Bytes)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Spans != 0 || a.Wall != 0 || a.OverlapEfficiency != 0 {
		t.Errorf("empty analysis = %+v", a)
	}
}

func TestChunkLatencies(t *testing.T) {
	lats := ChunkLatencies(pipelineSpans())
	if len(lats) != 3 {
		t.Fatalf("got %d latencies, want 3", len(lats))
	}
	// Chunk 0: copy-in start 0 → copy-out end 30ms.
	if lats[0] != 30*ms {
		t.Errorf("chunk 0 latency = %v, want 30ms", lats[0])
	}
	// Chunk 2: 20ms → 60ms.
	if lats[2] != 40*ms {
		t.Errorf("chunk 2 latency = %v, want 40ms", lats[2])
	}
}

func TestStallReportRenders(t *testing.T) {
	s := Analyze(pipelineSpans()).StallReport().ASCII()
	for _, want := range []string{"copy-in", "compute-wait", "overlap efficiency", "T_copy (union)"} {
		if !strings.Contains(s, want) {
			t.Errorf("stall report missing %q:\n%s", want, s)
		}
	}
}

func TestModelDriftReport(t *testing.T) {
	a := Analyze(pipelineSpans())
	pred := model.PaperTable2().Evaluate(model.SymmetricPools(4, 256), 2)
	s := a.ModelDriftReport(pred).ASCII()
	for _, want := range []string{"bounding side", "compute-bound", "T_copy / T_comp", "Eq. 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("drift report missing %q:\n%s", want, s)
		}
	}
}

func TestPublishFillsRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := Publish(reg, pipelineSpans())
	if a.Chunks != 3 {
		t.Fatalf("publish returned wrong analysis")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pipeline_stage_bytes_total{stage="copy-in"} 240`,
		"pipeline_overlap_efficiency 0.625",
		"pipeline_chunk_latency_seconds_count 3",
		`pipeline_stage_wait_seconds_bucket{stage="compute-wait",le="+Inf"} 1`,
		"pipeline_chunks 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}
