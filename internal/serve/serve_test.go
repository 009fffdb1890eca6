package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"knlmlm/internal/edge"
	"knlmlm/internal/exec"
	"knlmlm/internal/sched"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

const testBudget = units.Bytes(4 << 20)

// gate blocks every Compute stage until opened — it lets tests hold jobs
// in Running (or Queued behind them) deterministically.
type gate struct {
	ch   chan struct{}
	once sync.Once
}

func newGate() *gate { return &gate{ch: make(chan struct{})} }

func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }

func (g *gate) wrap(s exec.Stages) exec.Stages {
	inner := s.Compute
	s.Compute = func(i int, buf []int64) error {
		<-g.ch
		return inner(i, buf)
	}
	return s
}

type testServer struct {
	srv   *Server
	sched *sched.Scheduler
	reg   *telemetry.Registry
	http  *httptest.Server
}

func newTestServer(t *testing.T, mutate func(*sched.Config)) *testServer {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := sched.Config{
		MCDRAMBudget: testBudget,
		Workers:      2,
		QueueLimit:   16,
		TotalThreads: 8,
		Registry:     reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sc, err := sched.New(cfg)
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	t.Cleanup(sc.Close)
	srv, err := New(Config{Scheduler: sc, Registry: reg})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return &testServer{srv: srv, sched: sc, reg: reg, http: hs}
}

func (ts *testServer) post(t *testing.T, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.http.URL+"/v1/sort", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /v1/sort: %v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func (ts *testServer) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.http.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func decodeStatus(t *testing.T, raw []byte) edge.JobStatus {
	t.Helper()
	var st edge.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode job status %q: %v", raw, err)
	}
	return st
}

func waitState(t *testing.T, ts *testServer, id, want string) edge.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, raw := ts.get(t, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll: HTTP %d: %s", resp.StatusCode, raw)
		}
		st := decodeStatus(t, raw)
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return edge.JobStatus{}
}

func TestSubmitPollDownloadRoundtrip(t *testing.T) {
	ts := newTestServer(t, nil)
	keys := workload.Generate(workload.Random, 50000, 1)

	resp, raw := ts.post(t, edge.SortRequest{Keys: keys})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.ID == "" || st.N != len(keys) {
		t.Fatalf("bad accepted status: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	final := waitState(t, ts, st.ID, "done")
	if final.ResultURL == "" {
		t.Fatalf("done status missing result_url: %+v", final)
	}

	resp, raw = ts.get(t, final.ResultURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Sort-Elements"); got != fmt.Sprint(len(keys)) {
		t.Fatalf("X-Sort-Elements = %q, want %d", got, len(keys))
	}
	var sorted []int64
	if err := json.Unmarshal(raw, &sorted); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if len(sorted) != len(keys) {
		t.Fatalf("result has %d elements, want %d", len(sorted), len(keys))
	}
	if !workload.IsSorted(sorted) {
		t.Fatal("result not sorted")
	}
}

func TestSubmitWaitLongPoll(t *testing.T) {
	ts := newTestServer(t, nil)
	keys := workload.Generate(workload.Random, 4000, 2)
	resp, raw := ts.post(t, edge.SortRequest{Keys: keys, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.State != "done" {
		t.Fatalf("wait submit returned state %q: %+v", st.State, st)
	}
}

func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	g := newGate()
	ts := newTestServer(t, func(c *sched.Config) {
		c.Workers = 1
		c.QueueLimit = 1
		c.Wrap = g.wrap
	})
	defer g.open()

	// First job occupies the only worker (held at Compute by the gate).
	resp, raw := ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, 3000, 3)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	waitState(t, ts, st.ID, "running")

	// Second fills the queue.
	resp, raw = ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, 3000, 4)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: HTTP %d: %s", resp.StatusCode, raw)
	}

	// Third must be rejected with typed overload mapped to 429.
	resp, raw = ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, 3000, 5)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: HTTP %d, want 429: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 missing Retry-After header")
	}
	var eb edge.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if eb.Code != "overloaded-queue-full" {
		t.Fatalf("error code = %q, want overloaded-queue-full", eb.Code)
	}
	if eb.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", eb.RetryAfterMS)
	}
}

func TestTooLargeReturns413(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, raw := ts.post(t, edge.SortRequest{
		Keys:         workload.Generate(workload.Random, 100000, 6),
		MegachunkLen: int(testBudget), // lease can never fit the budget
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, want 413: %s", resp.StatusCode, raw)
	}
	var eb edge.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if eb.Code != "too-large" {
		t.Fatalf("error code = %q, want too-large", eb.Code)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, nil)

	resp, _ := ts.post(t, edge.SortRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty keys: HTTP %d, want 400", resp.StatusCode)
	}

	resp, _ = ts.post(t, edge.SortRequest{Keys: []int64{3, 1, 2}, Algorithm: "bogosort"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad algorithm: HTTP %d, want 400", resp.StatusCode)
	}

	r, err := http.Post(ts.http.URL+"/v1/sort", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: HTTP %d, want 400", r.StatusCode)
	}
}

func TestUnknownJob404(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, _ := ts.get(t, "/v1/jobs/job-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
}

func TestResultNotReady409(t *testing.T) {
	g := newGate()
	ts := newTestServer(t, func(c *sched.Config) { c.Wrap = g.wrap })
	defer g.open()

	resp, raw := ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, 3000, 7)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	resp, raw = ts.get(t, "/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("HTTP %d, want 409: %s", resp.StatusCode, raw)
	}
	var eb edge.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if eb.Code != "not-ready" {
		t.Fatalf("error code = %q, want not-ready", eb.Code)
	}
}

func TestCancelViaDELETE(t *testing.T) {
	g := newGate()
	ts := newTestServer(t, func(c *sched.Config) {
		c.Workers = 1
		c.Wrap = g.wrap
	})
	defer g.open()

	// Block the worker, then cancel a queued job.
	resp, raw := ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, 3000, 8)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: HTTP %d: %s", resp.StatusCode, raw)
	}
	blocker := decodeStatus(t, raw)
	waitState(t, ts, blocker.ID, "running")

	resp, raw = ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, 3000, 9)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("victim: HTTP %d: %s", resp.StatusCode, raw)
	}
	victim := decodeStatus(t, raw)

	req, err := http.NewRequest(http.MethodDelete, ts.http.URL+"/v1/jobs/"+victim.ID, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", dresp.StatusCode)
	}
	st := waitState(t, ts, victim.ID, "canceled")
	if st.LeaseBytes != 0 {
		t.Fatalf("canceled queued job holds %d lease bytes", st.LeaseBytes)
	}
	// Its result must be refused with the terminal-state conflict.
	resp, _ = ts.get(t, "/v1/jobs/"+victim.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("canceled result: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestHealthzCapacityBlock checks the compact routing block a cluster
// coordinator polls: headroom tracks the ledger, the rates are the
// admission model's parameters, and the thread budget is the one
// the fair-share solver runs on.
func TestHealthzCapacityBlock(t *testing.T) {
	g := newGate()
	ts := newTestServer(t, func(c *sched.Config) {
		c.Workers = 1
		c.Wrap = g.wrap
	})
	defer g.open()
	resp, raw := ts.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d: %s", resp.StatusCode, raw)
	}
	var hb edge.Health
	if err := json.Unmarshal(raw, &hb); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	cp := hb.Capacity
	if cp.HeadroomBytes != hb.BudgetBytes-hb.LeasedBytes {
		t.Fatalf("headroom %d, want budget-leased %d", cp.HeadroomBytes, hb.BudgetBytes-hb.LeasedBytes)
	}
	if cp.EWMACopyBps <= 0 || cp.EWMACompBps <= 0 {
		t.Fatalf("capacity rates not published: %+v", cp)
	}
	if cp.Threads != ts.sched.TotalThreads() || cp.Threads <= 0 {
		t.Fatalf("capacity threads %d, want %d", cp.Threads, ts.sched.TotalThreads())
	}
	if cp.BrownoutLevel != hb.BrownoutLevel {
		t.Fatalf("capacity brownout %d != healthz brownout %d", cp.BrownoutLevel, hb.BrownoutLevel)
	}

	// With a job held in Running its lease must dent the headroom.
	resp, raw = ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, 40000, 1)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("held job: HTTP %d: %s", resp.StatusCode, raw)
	}
	held := decodeStatus(t, raw)
	waitState(t, ts, held.ID, "running")
	resp, raw = ts.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with running job: HTTP %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &hb); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if hb.Capacity.HeadroomBytes >= cp.HeadroomBytes {
		t.Fatalf("headroom %d did not shrink under a running lease (was %d)",
			hb.Capacity.HeadroomBytes, cp.HeadroomBytes)
	}
	g.open()
	waitState(t, ts, held.ID, "done")
}

func TestHealthzFlipsOnDrain(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, raw := ts.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d: %s", resp.StatusCode, raw)
	}
	var hb edge.Health
	if err := json.Unmarshal(raw, &hb); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if hb.Status != "ok" || hb.BudgetBytes != int64(testBudget) {
		t.Fatalf("healthz body: %+v", hb)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ts.srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, raw = ts.get(t, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: HTTP %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &hb); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if hb.Status != "draining" || !hb.Draining {
		t.Fatalf("healthz body after drain: %+v", hb)
	}
	// Admissions are refused while draining.
	resp, _ = ts.post(t, edge.SortRequest{Keys: []int64{3, 1, 2}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit while draining: HTTP %d, want 429", resp.StatusCode)
	}
}

func TestMetricsExposesSchedAndServeFamilies(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, raw := ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, 2000, 10), Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	resp, raw = ts.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		"sched_mcdram_budget_bytes",
		"sched_mcdram_leased_bytes",
		"sched_queue_depth",
		"sched_jobs_completed_total",
		"serve_requests_total",
		"serve_requests_inflight",
		"serve_request_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestResultStreamingChunks(t *testing.T) {
	// A tiny chunk size exercises the multi-chunk streaming path.
	reg := telemetry.NewRegistry()
	sc, err := sched.New(sched.Config{MCDRAMBudget: testBudget, TotalThreads: 8, Registry: reg})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	defer sc.Close()
	srv, err := New(Config{Scheduler: sc, Registry: reg, ResultChunkElems: 7})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	keys := workload.Generate(workload.Random, 1000, 11)
	raw, _ := json.Marshal(edge.SortRequest{Keys: keys, Wait: true})
	resp, err := http.Post(hs.URL+"/v1/sort", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	st := decodeStatus(t, body)
	if st.State != "done" {
		t.Fatalf("job state %q: %+v", st.State, st)
	}

	rresp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer rresp.Body.Close()
	var sorted []int64
	if err := json.NewDecoder(rresp.Body).Decode(&sorted); err != nil {
		t.Fatalf("decode streamed result: %v", err)
	}
	if len(sorted) != len(keys) || !workload.IsSorted(sorted) {
		t.Fatalf("streamed result wrong: %d elements, sorted=%v", len(sorted), workload.IsSorted(sorted))
	}
}

// TestSchedErrorMapping pins the HTTP classification of the scheduler's
// typed admission errors — in particular that an already-expired deadline
// is a non-retryable 400, not a 429 inviting a retry that can never
// succeed.
func TestSchedErrorMapping(t *testing.T) {
	cases := []struct {
		err      error
		wantCode int
		wantBody string
	}{
		{&sched.OverloadError{Reason: "queue-full", RetryAfter: time.Second}, http.StatusTooManyRequests, "overloaded-queue-full"},
		{sched.ErrDeadlineExpired, http.StatusBadRequest, "deadline-expired"},
		{&sched.TooLargeError{Lease: 2, Budget: 1}, http.StatusRequestEntityTooLarge, "too-large"},
		{sched.ErrClosed, http.StatusServiceUnavailable, "closed"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeSchedError(rec, tc.err)
		if rec.Code != tc.wantCode {
			t.Errorf("%v: HTTP %d, want %d", tc.err, rec.Code, tc.wantCode)
		}
		if !strings.Contains(rec.Body.String(), tc.wantBody) {
			t.Errorf("%v: body %q missing code %q", tc.err, rec.Body.String(), tc.wantBody)
		}
		if tc.wantCode == http.StatusBadRequest && rec.Header().Get("Retry-After") != "" {
			t.Errorf("%v: non-retryable rejection carries Retry-After", tc.err)
		}
	}
}
