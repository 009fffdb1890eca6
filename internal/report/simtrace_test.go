package report

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/trace"
	"knlmlm/internal/units"
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

func TestChromeTraceSimBridge(t *testing.T) {
	tr := &trace.Trace{Name: "simulated"}
	tr.Add(trace.Phase{Label: "copy-in[0]", Start: 0, Duration: 1, DDRBytes: units.GiB, MCDRAMBytes: units.GiB})
	tr.Add(trace.Phase{Label: "merge-compute[0]", Start: 1, Duration: 2, MCDRAMBytes: 4 * units.GiB})
	tr.Add(trace.Phase{Label: "copy-out[0]", Start: 3, Duration: 1, DDRBytes: units.GiB, MCDRAMBytes: units.GiB})

	var ct telemetry.ChromeTrace
	AddSimTrace(&ct, 2, tr)
	var b strings.Builder
	if err := ct.Write(&b); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, b.String())
	var sim int
	for _, e := range events {
		if e["cat"] == "sim" {
			sim++
			// 1 simulated second = 1e6 viewer micros.
			if e["name"] == "merge-compute[0]" && e["ts"].(float64) != 1e6 {
				t.Errorf("compute ts = %v, want 1e6", e["ts"])
			}
		}
	}
	if sim != 3 {
		t.Errorf("got %d sim events, want 3", sim)
	}
}

func TestChromeTraceSideBySide(t *testing.T) {
	tr := &trace.Trace{Name: "sim"}
	tr.Add(trace.Phase{Label: "compute", Start: 0, Duration: 1})
	var ct telemetry.ChromeTrace
	ct.AddProcessName(1, "real")
	ct.AddSpans(1, pipelineSpans())
	AddSimTrace(&ct, 2, tr)
	var b strings.Builder
	if err := ct.Write(&b); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	for _, e := range decodeTrace(t, b.String()) {
		if e["ph"] == "X" {
			pids[e["pid"].(float64)] = true
		}
	}
	if !pids[1] || !pids[2] {
		t.Errorf("expected both pid lanes, got %v", pids)
	}
}

func TestSplitPhaseLabel(t *testing.T) {
	cases := []struct {
		in    string
		base  string
		chunk int
	}{
		{"copy-in[7]", "copy-in", 7},
		{"merge-compute[0]", "merge-compute", 0},
		{"copy-in-spin", "copy-in-spin", -1},
		{"odd[label", "odd[label", -1},
	}
	for _, c := range cases {
		b, n := splitPhaseLabel(c.in)
		if b != c.base || n != c.chunk {
			t.Errorf("splitPhaseLabel(%q) = (%q, %d), want (%q, %d)", c.in, b, n, c.base, c.chunk)
		}
	}
}

func TestSimSpansClassification(t *testing.T) {
	tr := &trace.Trace{}
	tr.Add(trace.Phase{Label: "copy-in[2]", Start: 0, Duration: 1, DDRBytes: 100})
	tr.Add(trace.Phase{Label: "copy-in-spin", Start: 0, Duration: 2, MCDRAMBytes: 10})
	tr.Add(trace.Phase{Label: "merge-compute[2]", Start: 1, Duration: 3, MCDRAMBytes: 50})
	tr.Add(trace.Phase{Label: "copy-out[2]", Start: 4, Duration: 1, DDRBytes: 100})
	spans := SimSpans(tr)
	wantStages := []exec.Stage{exec.StageCopyIn, exec.StageCopyInWait, exec.StageCompute, exec.StageCopyOut}
	for i, s := range spans {
		if s.Stage != wantStages[i] {
			t.Errorf("span %d stage = %v, want %v", i, s.Stage, wantStages[i])
		}
	}
	if spans[0].Chunk != 2 || spans[0].Bytes != 100 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[2].Dur != 3*time.Second {
		t.Errorf("compute dur = %v, want 3s", spans[2].Dur)
	}
	// The bridged spans must be analyzable.
	a := Analyze(spans)
	if a.TComp != 3*time.Second || a.TCopy != 2*time.Second {
		t.Errorf("sim analysis TComp=%v TCopy=%v", a.TComp, a.TCopy)
	}
}
