package serve

import (
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"knlmlm/internal/edge"
	"knlmlm/internal/sched"
	"knlmlm/internal/spill"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// spillMutate configures the scheduler so staged jobs over ~38k elements
// take the spill class, with run stores rooted in dir.
func spillMutate(dir string) func(*sched.Config) {
	return func(cfg *sched.Config) {
		cfg.DDRBudget = 600 << 10
		cfg.DiskBudget = 64 << 20
		cfg.SpillDir = dir
	}
}

// runFilesUnder counts regular files anywhere under dir — live spill run
// files show up here, an empty tree means every store was reclaimed. The
// scheduler's crash-recovery owner marker lives for the whole process and
// is not spill payload, so it is excluded.
func runFilesUnder(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			// A store directory may vanish between listing and visiting —
			// that is the cleanup we are hoping to observe, not an error.
			return nil
		}
		if !d.IsDir() && d.Name() != spill.OwnerMarkerName {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	return n
}

// TestSpilledResultDownload drives an over-DDR job through submit,
// status, and a full streaming download, and asserts the stream is
// byte-identical to an in-memory sort, consume-once, and leak-free.
func TestSpilledResultDownload(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, spillMutate(dir))

	const n = 60000
	keys := workload.Generate(workload.Random, n, 20260805)
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	resp, raw := ts.post(t, edge.SortRequest{Keys: keys, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.State != "done" || !st.Spilled {
		t.Fatalf("status = %+v, want done+spilled", st)
	}
	if st.DiskLeaseBytes != int64(n*8) {
		t.Fatalf("disk_lease_bytes = %d, want %d", st.DiskLeaseBytes, n*8)
	}
	if runFilesUnder(t, dir) == 0 {
		t.Fatal("no run files on disk while the spilled result is pending")
	}

	dresp, body := ts.get(t, st.ResultURL)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("download: HTTP %d: %s", dresp.StatusCode, body)
	}
	if dresp.Header.Get("X-Sort-Spilled") != "true" {
		t.Fatal("download missing X-Sort-Spilled header")
	}
	var got []int64
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if len(got) != n {
		t.Fatalf("downloaded %d elements, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result[%d] = %d, in-memory sort gives %d", i, got[i], want[i])
		}
	}

	// Consume-once: the merge already deleted the runs.
	gone, body2 := ts.get(t, st.ResultURL)
	if gone.StatusCode != http.StatusGone {
		t.Fatalf("second download: HTTP %d: %s, want 410", gone.StatusCode, body2)
	}
	if runFilesUnder(t, dir) != 0 {
		t.Fatal("run files survive a completed download")
	}
	hresp, hraw := ts.get(t, "/healthz")
	var h edge.Health
	if err := json.Unmarshal(hraw, &h); err != nil {
		t.Fatalf("decode healthz (HTTP %d): %v", hresp.StatusCode, err)
	}
	if h.DiskBudgetBytes == 0 {
		t.Fatal("healthz missing disk budget")
	}
	if h.DiskLeasedBytes != 0 {
		t.Fatalf("healthz disk_leased_bytes = %d after download, want 0", h.DiskLeasedBytes)
	}
}

// TestSpilledDownloadDisconnect is the mid-stream disconnect satellite: a
// client drops the connection partway through a chunked spill download,
// and the server must cancel the merge, release the disk lease, delete
// the run files, and leak no goroutines. The next download attempt gets
// 410 Gone.
func TestSpilledDownloadDisconnect(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, spillMutate(dir))

	// Warm the HTTP stack, then take the goroutine baseline.
	ts.get(t, "/healthz")
	baseline := runtime.NumGoroutine()

	// Large enough that the response cannot hide in socket buffers: the
	// handler must still be writing when the client hangs up.
	const n = 300000
	resp, raw := ts.post(t, edge.SortRequest{Keys: workload.Generate(workload.Random, n, 7), Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if !st.Spilled {
		t.Fatalf("%d-element job not spilled", n)
	}
	if got := ts.sched.DiskBudget().Leased(); got != units.Bytes(n*8) {
		t.Fatalf("disk leased %v before download, want %d", got, n*8)
	}

	client := &http.Client{}
	dresp, err := client.Get(ts.http.URL + st.ResultURL)
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	if _, err := io.ReadFull(dresp.Body, make([]byte, 4096)); err != nil {
		t.Fatalf("read prefix: %v", err)
	}
	dresp.Body.Close() // hang up mid-stream
	client.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ts.sched.DiskBudget().Leased() == 0 && runFilesUnder(t, dir) == 0 &&
			runtime.NumGoroutine() <= baseline+2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := ts.sched.DiskBudget().Leased(); got != 0 {
		t.Fatalf("disk leased %v after disconnect, want 0", got)
	}
	if files := runFilesUnder(t, dir); files != 0 {
		t.Fatalf("%d run files survive the disconnect", files)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		t.Fatalf("goroutines %d > baseline %d: merge workers leaked", g, baseline)
	}

	gone, body := ts.get(t, st.ResultURL)
	if gone.StatusCode != http.StatusGone {
		t.Fatalf("download after disconnect: HTTP %d: %s, want 410", gone.StatusCode, body)
	}
}
