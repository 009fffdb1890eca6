package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"knlmlm/internal/edge"
	"knlmlm/internal/exec"
	"knlmlm/internal/fault"
	"knlmlm/internal/sched"
	"knlmlm/internal/serve"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/wire"
)

// bootBackend runs a real single-node stack (scheduler + HTTP front end)
// on an ephemeral port — the same thing mlmserve serves, in-process.
func bootBackend(t *testing.T) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(newNode(t, serve.Config{}))
	t.Cleanup(hs.Close)
	return hs
}

// newNode builds the node stack's handler; cfg's Scheduler and Registry
// are filled in.
func newNode(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	sc, err := sched.New(sched.Config{
		MCDRAMBudget: units.Bytes(8 << 20),
		Workers:      2,
		QueueLimit:   64,
		TotalThreads: 8,
		Registry:     reg,
	})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	t.Cleanup(sc.Close)
	cfg.Scheduler, cfg.Registry = sc, reg
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return srv
}

type testCluster struct {
	coord    *Coordinator
	http     *httptest.Server
	backends []*httptest.Server
}

func newTestCluster(t *testing.T, n int, mutate func(*Config)) *testCluster {
	t.Helper()
	var servers []*httptest.Server
	for i := 0; i < n; i++ {
		servers = append(servers, bootBackend(t))
	}
	return newClusterOver(t, servers, ServerConfig{}, mutate)
}

// newClusterOver fronts already-running backends with a coordinator.
func newClusterOver(t *testing.T, servers []*httptest.Server, scfg ServerConfig, mutate func(*Config)) *testCluster {
	t.Helper()
	var urls []string
	for _, hs := range servers {
		urls = append(urls, hs.URL)
	}
	cfg := Config{
		Backends:     urls,
		PollInterval: 50 * time.Millisecond,
		Seed:         1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(coord.Close)
	scfg.Coordinator = coord
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatalf("cluster.NewServer: %v", err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return &testCluster{coord: coord, http: hs, backends: servers}
}

func testKeys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63() - rng.Int63()
	}
	return keys
}

func wantSorted(keys []int64) []int64 {
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return want
}

func checkResult(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result has %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func submitWaitJSON(t *testing.T, tc *testCluster, keys []int64) jobStatus {
	t.Helper()
	raw, _ := json.Marshal(edge.SortRequest{Keys: keys, Wait: true})
	resp, err := http.Post(tc.http.URL+"/v1/sort", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /v1/sort: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func downloadJSON(t *testing.T, tc *testCluster, id string) []int64 {
	t.Helper()
	resp, err := http.Get(tc.http.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", resp.StatusCode, body)
	}
	var got []int64
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return got
}

func TestClusterEndToEndJSON(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	keys := testKeys(50000, 42)
	st := submitWaitJSON(t, tc, keys)
	if st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Parts < 2 {
		t.Fatalf("job used %d partitions, want >= 2", st.Parts)
	}
	checkResult(t, downloadJSON(t, tc, st.ID), wantSorted(keys))
	if got := tc.coord.m.partitions.Value(); got < 2 {
		t.Fatalf("cluster_partitions_total = %d, want >= 2", got)
	}
	var routed int64
	for _, ctr := range tc.coord.m.bytesRouted {
		routed += ctr.Value()
	}
	if routed != int64(len(keys)*8) {
		t.Fatalf("cluster_backend_bytes_routed_total sums to %d, want %d", routed, len(keys)*8)
	}
}

func TestClusterBinaryRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	keys := testKeys(30000, 7)
	body := wire.Encode(nil, keys, 0)
	req, _ := http.NewRequest(http.MethodPost, tc.http.URL+"/v1/sort?wait=1", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("binary submit: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode status: %v", err)
	}

	dreq, _ := http.NewRequest(http.MethodGet, tc.http.URL+"/v1/jobs/"+st.ID+"/result", nil)
	dreq.Header.Set("Accept", wire.ContentType)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatalf("wire download: %v", err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("wire download: HTTP %d", dresp.StatusCode)
	}
	if ct := dresp.Header.Get("Content-Type"); !edge.IsWireContentType(ct) {
		t.Fatalf("wire download Content-Type %q", ct)
	}
	got, err := wire.Decode(dresp.Body, int64(len(keys)), nil)
	if err != nil {
		t.Fatalf("decode wire result: %v", err)
	}
	checkResult(t, got, wantSorted(keys))
}

func TestClusterResultConsumeOnce(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	st := submitWaitJSON(t, tc, testKeys(20000, 3))
	downloadJSON(t, tc, st.ID)
	resp, err := http.Get(tc.http.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("second GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("second result GET: HTTP %d, want 410", resp.StatusCode)
	}
}

func TestClusterDialFailover(t *testing.T) {
	// Backend 0 refuses every connection: partitions assigned to it must
	// fail over to backend 1 and the job must still complete correctly.
	inj := fault.MustNewInjector(5, fault.Spec{
		Stage:  exec.StageCopyIn,
		Kind:   fault.ConnKill,
		Rate:   1,
		Chunks: []int{0},
	})
	tc := newTestCluster(t, 2, func(c *Config) { c.ConnFaults = inj })
	keys := testKeys(40000, 11)
	st := submitWaitJSON(t, tc, keys)
	if st.State != "done" {
		t.Fatalf("job ended %s with backend 0 dead: %s", st.State, st.Error)
	}
	if st.Retries < 1 {
		t.Fatal("dial failover reported zero retries")
	}
	checkResult(t, downloadJSON(t, tc, st.ID), wantSorted(keys))
	if got := tc.coord.m.retries.Value(); got < 1 {
		t.Fatalf("cluster_partition_retries_total = %d, want >= 1", got)
	}
	if tc.coord.m.bytesRouted[1].Value() != int64(len(keys)*8) {
		t.Fatal("failover did not route all bytes to the surviving backend")
	}
}

func TestClusterStreamSeverRetry(t *testing.T) {
	// Sever backend 1's first result stream mid-download (MaxHits bounds
	// it to once). The merge must re-run the lost partition and deliver a
	// byte-correct result, with the retry visible in telemetry.
	inj := fault.MustNewInjector(9, fault.Spec{
		Stage:   exec.StageCopyOut,
		Kind:    fault.ConnKill,
		Rate:    1,
		Chunks:  []int{1},
		MaxHits: 1,
	})
	tc := newTestCluster(t, 2, func(c *Config) { c.ConnFaults = inj })
	keys := testKeys(40000, 13)
	st := submitWaitJSON(t, tc, keys)
	if st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	checkResult(t, downloadJSON(t, tc, st.ID), wantSorted(keys))
	if got := tc.coord.m.retries.Value(); got < 1 {
		t.Fatalf("cluster_partition_retries_total = %d after a severed stream, want >= 1", got)
	}
	if inj.Counts()[fault.ConnKill] != 1 {
		t.Fatalf("injector fired %d times, want exactly 1", inj.Counts()[fault.ConnKill])
	}
}

func TestClusterHealthzFleetView(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	resp, err := http.Get(tc.http.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz %d %q", resp.StatusCode, h.Status)
	}
	if len(h.Backends) != 2 {
		t.Fatalf("fleet view has %d backends, want 2", len(h.Backends))
	}
	var share float64
	for _, b := range h.Backends {
		if !b.Up {
			t.Fatalf("backend %d reported down", b.Index)
		}
		if b.Capacity.EWMACopyBps <= 0 || b.Capacity.Threads <= 0 {
			t.Fatalf("backend %d capacity block empty: %+v", b.Index, b.Capacity)
		}
		share += b.Weight
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("backend weight shares sum to %.3f, want 1", share)
	}
}

func TestClusterSkewTelemetry(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	st := submitWaitJSON(t, tc, testKeys(30000, 17))
	if st.Skew <= 0 {
		t.Fatalf("job skew %v, want > 0", st.Skew)
	}
	if tc.coord.m.skew.Count() != 1 {
		t.Fatalf("cluster_partition_skew observations = %d, want 1", tc.coord.m.skew.Count())
	}
}

func TestClusterDrainRefusesSubmissions(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	if err := tc.coord.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	raw, _ := json.Marshal(edge.SortRequest{Keys: []int64{3, 1, 2}})
	resp, err := http.Post(tc.http.URL+"/v1/sort", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST after drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: HTTP %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(tc.http.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", hresp.StatusCode)
	}
}

// TestClusterShedBacksOffOnSameBackend: a backend that admits a
// partition and then sheds it answers 200 with state "failed" and
// "shed": true. That is backpressure — the node is alive — so the
// partition waits and re-submits to the same backend; it must not spend
// the failover budget.
func TestClusterShedBacksOffOnSameBackend(t *testing.T) {
	node := newNode(t, serve.Config{})
	var shed atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && shed.CompareAndSwap(false, true) {
			_, _ = io.Copy(io.Discard, r.Body)
			edge.WriteJSON(w, http.StatusOK, edge.JobStatus{
				ID: "job-shed", State: "failed", N: 1, Shed: true, Error: "sched: job shed by overload control",
			})
			return
		}
		node.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	tc := newClusterOver(t, []*httptest.Server{hs, bootBackend(t)}, ServerConfig{}, nil)

	keys := testKeys(40000, 23)
	st := submitWaitJSON(t, tc, keys)
	if st.State != "done" {
		t.Fatalf("job ended %s after one shed partition: %s", st.State, st.Error)
	}
	if !shed.Load() {
		t.Fatal("no partition reached the shedding backend")
	}
	if got := tc.coord.m.retries.Value(); got != 0 {
		t.Fatalf("cluster_partition_retries_total = %d, want 0: a shed is not a failover", got)
	}
	if got := tc.coord.m.backoffs.Value(); got != 1 {
		t.Fatalf("cluster_partition_backoffs_total = %d, want 1", got)
	}
	j, _ := tc.coord.Lookup(st.ID)
	for _, p := range j.parts {
		if want := p.idx % len(tc.backends); p.backend.idx != want {
			t.Fatalf("partition %d ended on backend %d, want %d", p.idx, p.backend.idx, want)
		}
	}
	checkResult(t, downloadJSON(t, tc, st.ID), wantSorted(keys))
}
