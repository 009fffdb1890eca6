package serve

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"testing"

	"knlmlm/internal/edge"
	"knlmlm/internal/psort"
	"knlmlm/internal/wire"
)

// postWireKind submits cells as a typed application/x-mlm-keys frame
// stream, announcing the kind both in the stream magic and as the
// Content-Type kind parameter.
func (ts *testServer) postWireKind(t *testing.T, kind wire.Kind, cells []int64, query string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.http.URL+"/v1/sort"+query,
		bytes.NewReader(wire.EncodeKind(nil, kind, cells, 0)))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeFor(kind))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/sort (kind=%v): %v", kind, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// getWireKind downloads a result with the wire Accept and decodes the
// typed frame stream, returning the stream's kind and cells.
func (ts *testServer) getWireKind(t *testing.T, path string) (*http.Response, wire.Kind, []int64) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.http.URL+path, nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, out)
	}
	fr, err := wire.NewReaderAnyKind(resp.Body)
	if err != nil {
		t.Fatalf("decode stream header: %v", err)
	}
	cells := make([]int64, fr.Total())
	if err := fr.ReadInto(cells); err != nil {
		t.Fatalf("read stream payload: %v", err)
	}
	if err := fr.Finish(); err != nil {
		t.Fatalf("stream end marker: %v", err)
	}
	return resp, fr.Kind(), cells
}

// f64LE is an independent statement of the service's float64 total
// order over raw bits: flip all bits of negatives, the sign bit of
// non-negatives, compare unsigned. NaN(sign=1) sorts first, NaN(sign=0)
// last, -0.0 before +0.0.
func f64LE(a, b int64) bool {
	flip := func(v int64) uint64 {
		u := uint64(v)
		if u>>63 == 1 {
			return ^u
		}
		return u | 1<<63
	}
	return flip(a) <= flip(b)
}

// adversarialF64Bits mixes random finite values with both NaN signs,
// infinities, zeros, and denormals.
func adversarialF64Bits(rng *rand.Rand, n int) []int64 {
	palette := []uint64{
		math.Float64bits(math.NaN()),
		math.Float64bits(math.NaN()) | 1<<63,
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		0x0000000000000000, // +0.0
		0x8000000000000000, // -0.0
		0x0000000000000001, // min denormal
		0x8000000000000001,
	}
	out := make([]int64, n)
	for i := range out {
		if rng.Intn(5) == 0 {
			out[i] = int64(palette[rng.Intn(len(palette))])
		} else {
			out[i] = int64(math.Float64bits(rng.NormFloat64() * 1e6))
		}
	}
	return out
}

// TestFloat64WireEndToEnd is the typed-keys acceptance path: float64
// keys submitted over the binary wire, downloaded over the binary wire,
// bit-exact under the required total order — NaN placement included —
// while the JSON surface refuses the type with a 400, not a panic.
func TestFloat64WireEndToEnd(t *testing.T) {
	ts := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(20260807))
	input := adversarialF64Bits(rng, 20000)

	resp, raw := ts.postWireKind(t, wire.KindFloat64, input, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("f64 submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.State != "done" || st.KeyType != "f64" {
		t.Fatalf("status = %+v, want done with key_type f64", st)
	}

	// JSON download of a float64 result must be a 400, not a bit dump.
	if jresp, jraw := ts.get(t, st.ResultURL); jresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("JSON download of f64 job: HTTP %d: %s", jresp.StatusCode, jraw)
	}

	dresp, kind, got := ts.getWireKind(t, st.ResultURL)
	if kind != wire.KindFloat64 {
		t.Fatalf("downloaded stream kind %v, want f64", kind)
	}
	if ct := dresp.Header.Get("Content-Type"); ct != wire.ContentTypeFor(wire.KindFloat64) {
		t.Fatalf("Content-Type = %q, want %q", ct, wire.ContentTypeFor(wire.KindFloat64))
	}
	if len(got) != len(input) {
		t.Fatalf("downloaded %d of %d cells", len(got), len(input))
	}
	for i := 1; i < len(got); i++ {
		if !f64LE(got[i-1], got[i]) {
			t.Fatalf("cell %d: %#x then %#x violates the float64 total order",
				i, uint64(got[i-1]), uint64(got[i]))
		}
	}
	// Bit-exact multiset: every NaN payload and zero sign comes back.
	wantBits := append([]int64(nil), input...)
	gotBits := append([]int64(nil), got...)
	sort.Slice(wantBits, func(i, j int) bool { return uint64(wantBits[i]) < uint64(wantBits[j]) })
	sort.Slice(gotBits, func(i, j int) bool { return uint64(gotBits[i]) < uint64(gotBits[j]) })
	for i := range wantBits {
		if gotBits[i] != wantBits[i] {
			t.Fatalf("bit multiset changed at %d: %#x vs %#x", i, uint64(gotBits[i]), uint64(wantBits[i]))
		}
	}
}

// TestFloat64WireSpilled drives the same float64 path through the spill
// class: the sortable image lives on disk, and the deferred merge must
// undo the bijection batch by batch on its way to the socket.
func TestFloat64WireSpilled(t *testing.T) {
	ts := newTestServer(t, spillMutate(t.TempDir()))
	rng := rand.New(rand.NewSource(11))
	input := adversarialF64Bits(rng, 60000)

	resp, raw := ts.postWireKind(t, wire.KindFloat64, input, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("f64 submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if !st.Spilled {
		t.Fatalf("job not spilled: %+v", st)
	}
	_, kind, got := ts.getWireKind(t, st.ResultURL)
	if kind != wire.KindFloat64 {
		t.Fatalf("stream kind %v, want f64", kind)
	}
	if len(got) != len(input) {
		t.Fatalf("downloaded %d of %d cells", len(got), len(input))
	}
	for i := 1; i < len(got); i++ {
		if !f64LE(got[i-1], got[i]) {
			t.Fatalf("cell %d breaks the total order across merge batches", i)
		}
	}
}

// TestRecordWireEndToEnd submits key+payload records over the wire and
// checks the downloaded stream is the stable sort by key with payloads
// still attached to their keys.
func TestRecordWireEndToEnd(t *testing.T) {
	ts := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(3))
	const n = 5000
	cells := make([]int64, 2*n)
	for i := 0; i < n; i++ {
		cells[2*i] = rng.Int63n(32) // dup-heavy: stability is observable
		cells[2*i+1] = int64(i)
	}

	resp, raw := ts.postWireKind(t, wire.KindRecord, cells, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.State != "done" || st.KeyType != "rec" {
		t.Fatalf("status = %+v, want done with key_type rec", st)
	}
	if st.N != 2*n {
		t.Fatalf("status N = %d cells, want %d", st.N, 2*n)
	}

	if jresp, jraw := ts.get(t, st.ResultURL); jresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("JSON download of record job: HTTP %d: %s", jresp.StatusCode, jraw)
	}

	_, kind, got := ts.getWireKind(t, st.ResultURL)
	if kind != wire.KindRecord {
		t.Fatalf("stream kind %v, want rec", kind)
	}
	want := psort.KVsFromInt64s(append([]int64(nil), cells...))
	sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	gotKVs := psort.KVsFromInt64s(got)
	if len(gotKVs) != len(want) {
		t.Fatalf("downloaded %d records, want %d", len(gotKVs), len(want))
	}
	for i := range want {
		if gotKVs[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v (stability or pairing lost)", i, gotKVs[i], want[i])
		}
	}
}

// TestTypedKeySubmitRejections pins the refusal surface: the JSON
// submit path has no typed-key encoding, kind negotiation fails closed,
// and malformed typed streams never reach the scheduler.
func TestTypedKeySubmitRejections(t *testing.T) {
	ts := newTestServer(t, nil)

	t.Run("json-key-type-f64", func(t *testing.T) {
		resp, raw := ts.post(t, edge.SortRequest{Keys: []int64{3, 1, 2}, KeyType: "f64"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("json-key-type-rec", func(t *testing.T) {
		resp, raw := ts.post(t, edge.SortRequest{Keys: []int64{3, 1, 2, 4}, KeyType: "rec"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("json-key-type-unknown", func(t *testing.T) {
		resp, raw := ts.post(t, edge.SortRequest{Keys: []int64{1}, KeyType: "utf8"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("json-key-type-i64-allowed", func(t *testing.T) {
		resp, raw := ts.post(t, edge.SortRequest{Keys: []int64{3, 1, 2}, KeyType: "i64", Wait: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})

	postRaw := func(t *testing.T, ct string, body []byte) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.http.URL+"/v1/sort", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("new request: %v", err)
		}
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}

	t.Run("kind-param-vs-magic-mismatch", func(t *testing.T) {
		// Content-Type says f64, stream magic says int64: a proxy rewrote
		// one of them, and the bytes cannot be trusted either way.
		body := wire.Encode(nil, []int64{3, 1, 2}, 0)
		resp, raw := postRaw(t, wire.ContentTypeFor(wire.KindFloat64), body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("unknown-kind-param", func(t *testing.T) {
		body := wire.Encode(nil, []int64{3, 1, 2}, 0)
		resp, raw := postRaw(t, wire.ContentType+"; kind=utf8", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("odd-record-stream", func(t *testing.T) {
		// A record stream declaring 3 cells: the reader refuses the header
		// before any payload is consumed.
		hdr := []byte{'M', 'L', 'K', 'r', 3, 0, 0, 0, 0, 0, 0, 0}
		resp, raw := postRaw(t, wire.ContentTypeFor(wire.KindRecord), hdr)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
}
