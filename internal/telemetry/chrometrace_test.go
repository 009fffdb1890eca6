package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"knlmlm/internal/exec"
)

// decodeTrace unmarshals the exporter's JSON and returns the events.
func decodeTrace(t *testing.T, s string) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(s), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

const ms = time.Millisecond

// pipelineSpans builds a hand-crafted 3-chunk pipeline, the fixture
// internal/report's analysis tests also run on:
//
//	copy-in:  [0,10) [10,20) [20,30)
//	compute:        [10,25)  [25,40) [40,55)
//	copy-out:               [25,30) [40,45) [55,60)
func pipelineSpans() []Span {
	mk := func(st exec.Stage, chunk int, lo, hi time.Duration, bytes int64) Span {
		return Span{Stage: st, Chunk: chunk, Worker: int(st), Start: lo, Dur: hi - lo, Bytes: bytes}
	}
	return []Span{
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

func TestChromeTraceRealSpans(t *testing.T) {
	var ct ChromeTrace
	ct.AddProcessName(1, "real run")
	ct.AddSpans(1, pipelineSpans())
	var b strings.Builder
	if err := ct.Write(&b); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, b.String())

	var complete, meta int
	chunksSeen := map[float64]bool{}
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if args, ok := e["args"].(map[string]any); ok {
				if c, ok := args["chunk"].(float64); ok {
					chunksSeen[c] = true
				}
			}
			if e["dur"].(float64) <= 0 {
				t.Errorf("event %v has non-positive duration", e["name"])
			}
		case "M":
			meta++
		}
	}
	if complete != len(pipelineSpans()) {
		t.Errorf("got %d complete events, want %d", complete, len(pipelineSpans()))
	}
	for _, c := range []float64{0, 1, 2} {
		if !chunksSeen[c] {
			t.Errorf("no event for chunk %v", c)
		}
	}
	if meta == 0 {
		t.Error("no metadata (process/thread name) events")
	}
}
