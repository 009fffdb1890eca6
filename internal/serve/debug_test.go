package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"knlmlm/internal/edge"
	"knlmlm/internal/sched"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

// submitDone posts one job with Wait and returns its terminal status.
func submitDone(t *testing.T, ts *testServer, n int, seed int64) edge.JobStatus {
	t.Helper()
	resp, raw := ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, n, seed), Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sort: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.State != "done" {
		t.Fatalf("job %s state %q, want done: %s", st.ID, st.State, raw)
	}
	return st
}

// TestDebugJobTrace: a finished job's trace is served as JSON with the
// full wall-phase decomposition and timeline.
func TestDebugJobTrace(t *testing.T) {
	ts := newTestServer(t, nil)
	st := submitDone(t, ts, 3000, 1)

	resp, raw := ts.get(t, "/debug/jobs/"+st.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d: %s", resp.StatusCode, raw)
	}
	var snap telemetry.TraceSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if snap.ID != st.ID || snap.State != "done" || snap.N != 3000 {
		t.Fatalf("trace identity wrong: %+v", snap)
	}
	for _, phase := range []string{"admit", "queue", "run"} {
		if _, ok := snap.PhasesMS[phase]; !ok {
			t.Fatalf("trace missing %q phase: %v", phase, snap.PhasesMS)
		}
	}
	var names []string
	for _, e := range snap.Events {
		names = append(names, e.Name)
	}
	joined := strings.Join(names, ",")
	for _, ev := range []string{"http-receive", "decoded", "admitted", "terminal"} {
		if !strings.Contains(joined, ev) {
			t.Fatalf("timeline missing %q: %v", ev, names)
		}
	}
}

// TestDebugJobTraceChrome: ?format=chrome serves a chrome://tracing
// JSON document for the same job.
func TestDebugJobTraceChrome(t *testing.T) {
	ts := newTestServer(t, nil)
	st := submitDone(t, ts, 3000, 2)

	resp, raw := ts.get(t, "/debug/jobs/"+st.ID+"/trace?format=chrome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace: HTTP %d", resp.StatusCode)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, st.ID) {
		t.Fatalf("Content-Disposition %q does not name the job", cd)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
}

// TestDebugJobTrace404: unknown and evicted ids both answer 404 with the
// typed error body.
func TestDebugJobTrace404(t *testing.T) {
	ts := newTestServer(t, func(cfg *sched.Config) { cfg.FlightRecorderCap = 1 })
	first := submitDone(t, ts, 3000, 3)
	submitDone(t, ts, 3000, 4) // evicts first from the 1-slot ring

	for _, id := range []string{"job-999999", first.ID} {
		resp, raw := ts.get(t, "/debug/jobs/"+id+"/trace")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("trace %s: HTTP %d, want 404: %s", id, resp.StatusCode, raw)
		}
		var eb edge.ErrorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("decode error body: %v", err)
		}
		if eb.Code != "trace-not-found" {
			t.Fatalf("error code = %q", eb.Code)
		}
	}
}

// TestDebugFlightRecorder: the ring summary lists recent jobs newest-
// last with working trace links, and respects its capacity.
func TestDebugFlightRecorder(t *testing.T) {
	ts := newTestServer(t, func(cfg *sched.Config) { cfg.FlightRecorderCap = 2 })
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitDone(t, ts, 3000, int64(10+i)).ID)
	}

	resp, raw := ts.get(t, "/debug/flightrecorder")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flightrecorder: HTTP %d: %s", resp.StatusCode, raw)
	}
	var body flightBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Capacity != 2 || body.Len != 2 || body.Evicted != 1 {
		t.Fatalf("ring summary = cap %d len %d evicted %d, want 2/2/1", body.Capacity, body.Len, body.Evicted)
	}
	if len(body.Jobs) != 2 {
		t.Fatalf("%d job rows", len(body.Jobs))
	}
	// Oldest-first: the survivors are the 2nd and 3rd submissions.
	for i, want := range ids[1:] {
		row := body.Jobs[i]
		if row.ID != want || row.State != "done" || row.N != 3000 {
			t.Fatalf("row %d = %+v, want job %s", i, row, want)
		}
		tr, traceRaw := ts.get(t, row.TraceURL)
		if tr.StatusCode != http.StatusOK {
			t.Fatalf("trace link %s: HTTP %d: %s", row.TraceURL, tr.StatusCode, traceRaw)
		}
	}
}

// TestDebugOverload: the overload report decomposes recent latency by
// phase (wall shares summing to ~1), reports drift, and embeds the
// scheduler's point-in-time occupancy.
func TestDebugOverload(t *testing.T) {
	ts := newTestServer(t, nil)
	for i := 0; i < 3; i++ {
		submitDone(t, ts, 40000, int64(20+i)) // staged: predictions + spans
	}

	resp, raw := ts.get(t, "/debug/overload")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overload: HTTP %d: %s", resp.StatusCode, raw)
	}
	var body struct {
		telemetry.OverloadReport
		Sched struct {
			Submitted   int64 `json:"submitted"`
			BudgetBytes int64 `json:"budget_bytes"`
		} `json:"sched"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Jobs != 3 || body.Terminal != 3 {
		t.Fatalf("jobs=%d terminal=%d, want 3/3", body.Jobs, body.Terminal)
	}
	var shareSum float64
	for _, ps := range body.WallPhases {
		shareSum += ps.Share
	}
	if shareSum < 0.99 || shareSum > 1.01 {
		t.Fatalf("wall shares sum to %v, want ~1", shareSum)
	}
	if body.DominantPhase == "" {
		t.Fatal("no dominant phase attributed")
	}
	if body.Drift == nil || body.Drift.Jobs != 3 {
		t.Fatalf("drift stats = %+v, want 3 jobs", body.Drift)
	}
	if body.Sched.Submitted != 3 || body.Sched.BudgetBytes != int64(testBudget) {
		t.Fatalf("sched block = %+v", body.Sched)
	}
}

// TestDebugSpillTraceOverHTTP: a spill-class job submitted and drained
// over HTTP shows spill-write, merge, and stream phases in its trace.
func TestDebugSpillTraceOverHTTP(t *testing.T) {
	ts := newTestServer(t, func(cfg *sched.Config) {
		cfg.DDRBudget = 600 << 10
		cfg.DiskBudget = 4 << 20
		cfg.SpillDir = t.TempDir()
	})
	resp, raw := ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, 100000, 30), Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if !st.Spilled {
		t.Fatal("100k job did not spill")
	}
	// Download the streamed result so merge/stream phases are recorded.
	rr, _ := ts.get(t, "/v1/jobs/"+st.ID+"/result")
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", rr.StatusCode)
	}

	_, traceRaw := ts.get(t, "/debug/jobs/"+st.ID+"/trace")
	var snap telemetry.TraceSnapshot
	if err := json.Unmarshal(traceRaw, &snap); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if !snap.Spilled {
		t.Fatal("trace lost spill flag")
	}
	if snap.PhasesMS["spill-write"] <= 0 {
		t.Fatalf("no spill-write phase: %v", snap.PhasesMS)
	}
	if snap.PhasesMS["merge"] <= 0 {
		t.Fatalf("no merge phase after result download: %v", snap.PhasesMS)
	}
	if _, ok := snap.PhasesMS["stream"]; !ok {
		t.Fatalf("no stream phase after result download: %v", snap.PhasesMS)
	}
}
