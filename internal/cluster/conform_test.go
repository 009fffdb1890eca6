package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"knlmlm/internal/edge"
	"knlmlm/internal/serve"
	"knlmlm/internal/wire"
)

// conformLimit is the submit body limit both tiers run under here, small
// enough that the over-limit rows stay cheap.
const conformLimit = 1 << 20

// answer is what one tier said to one request.
type answer struct {
	status      int
	code        string // the error body's code; empty on 2xx
	contentType string
	body        []byte
}

func do(t *testing.T, req *http.Request) answer {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type")}
	a.body, _ = io.ReadAll(resp.Body)
	if a.status >= 300 {
		var eb edge.ErrorBody
		if err := json.Unmarshal(a.body, &eb); err != nil {
			t.Fatalf("%s %s: HTTP %d with a non-JSON error body %q", req.Method, req.URL, a.status, a.body)
		}
		a.code = eb.Code
	}
	return a
}

func request(t *testing.T, method, url, contentType string, body []byte) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return req
}

// sortVia submits keys (binary or JSON, wait=true) to the tier at base,
// downloads the result under the given Accept header and returns the
// download's answer.
func sortVia(t *testing.T, base string, keys []int64, binary bool, accept string) answer {
	t.Helper()
	var sub answer
	if binary {
		sub = do(t, request(t, http.MethodPost, base+"/v1/sort?wait=1", wire.ContentType, wire.Encode(nil, keys, 0)))
	} else {
		raw, _ := json.Marshal(edge.SortRequest{Keys: keys, Wait: true})
		sub = do(t, request(t, http.MethodPost, base+"/v1/sort", "application/json", raw))
	}
	var st edge.JobStatus
	if err := json.Unmarshal(sub.body, &st); err != nil || sub.status != http.StatusOK || st.State != edge.StateDone {
		t.Fatalf("submit to %s: HTTP %d %s", base, sub.status, sub.body)
	}
	req := request(t, http.MethodGet, base+st.ResultURL, "", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return do(t, req)
}

// TestTiersConform runs one table of requests against a node and
// against a coordinator over two nodes. The coordinator serves the
// node's protocol, so every row must draw the same HTTP status and
// error code from both, and every int64 result the same keys (the same
// bytes, for JSON).
func TestTiersConform(t *testing.T) {
	node := httptest.NewServer(newNode(t, serve.Config{MaxBodyBytes: conformLimit}))
	t.Cleanup(node.Close)
	tc := newClusterOver(t, []*httptest.Server{bootBackend(t), bootBackend(t)},
		ServerConfig{MaxBodyBytes: conformLimit}, nil)

	enc := wire.Encode(nil, []int64{3, 1, 2}, 0)
	jsonBody := func(s string) func(string) *http.Request {
		return func(base string) *http.Request {
			return request(t, http.MethodPost, base+"/v1/sort", "application/json", []byte(s))
		}
	}
	wireBody := func(query string, body []byte) func(string) *http.Request {
		return func(base string) *http.Request {
			return request(t, http.MethodPost, base+"/v1/sort"+query, wire.ContentType, body)
		}
	}
	on := func(method, path string) func(string) *http.Request {
		return func(base string) *http.Request { return request(t, method, base+path, "", nil) }
	}
	// A stream whose declared total just fits the limit but whose bytes
	// (header, frame prefixes, end marker) do not: the body is cut mid-read.
	cut := wire.Encode(nil, make([]int64, conformLimit/8), 0)
	refusals := []struct {
		name   string
		req    func(base string) *http.Request
		status int
		code   string
	}{
		{"bad priority", wireBody("?priority=soon", enc), 400, "bad-request"},
		{"bad deadline_ms", wireBody("?deadline_ms=later", enc), 400, "bad-request"},
		{"bad megachunk_len", wireBody("?megachunk_len=big", enc), 400, "bad-request"},
		{"malformed JSON", jsonBody(`{"keys":[1,`), 400, "bad-request"},
		{"trailing bytes after the JSON value", jsonBody(`{"keys":[1]}{"evil":1}`), 400, "bad-request"},
		{"empty keys, JSON", jsonBody(`{"keys":[]}`), 400, "bad-request"},
		{"empty keys, binary", wireBody("", wire.Encode(nil, nil, 0)), 400, "bad-request"},
		{"truncated stream", wireBody("", enc[:len(enc)-6]), 400, "bad-request"},
		{"unknown algorithm, JSON", jsonBody(`{"keys":[3,1,2],"algorithm":"bogosort"}`), 400, "bad-request"},
		{"unknown algorithm, binary", wireBody("?algorithm=quicksort", enc), 400, "bad-request"},
		// One name per data flow: on the real path the hybrid-mode twin is
		// MLM-sort's flow under a second name, and /v1 takes one.
		{"MLM-hybrid, JSON", jsonBody(`{"keys":[3,1,2],"algorithm":"MLM-hybrid"}`), 400, "bad-request"},
		{"MLM-hybrid, binary", wireBody("?algorithm=MLM-hybrid", enc), 400, "bad-request"},
		{"over-limit body, JSON", jsonBody(`{"keys":[` + strings.Repeat("1,", conformLimit) + `1]}`), 413, "too-large"},
		{"over-limit declared total", wireBody("", []byte{'M', 'L', 'K', '1', 0, 0, 0, 0, 0, 1, 0, 0}), 413, "too-large"},
		{"over-limit body, binary", wireBody("", cut), 413, "too-large"},
		{"unknown job, status", on(http.MethodGet, "/v1/jobs/nope"), 404, "not-found"},
		{"unknown job, result", on(http.MethodGet, "/v1/jobs/nope/result"), 404, "not-found"},
		{"unknown job, cancel", on(http.MethodDelete, "/v1/jobs/nope"), 404, "not-found"},
	}
	for _, row := range refusals {
		t.Run(row.name, func(t *testing.T) {
			for _, tier := range []struct{ name, url string }{{"node", node.URL}, {"coordinator", tc.http.URL}} {
				a := do(t, row.req(tier.url))
				if a.status != row.status || a.code != row.code {
					t.Errorf("%s: HTTP %d %q, want %d %q: %s", tier.name, a.status, a.code, row.status, row.code, a.body)
				}
			}
		})
	}
	// A refusal happens at the coordinator's own edge: no job is made and
	// no partition is cut for a backend to refuse in turn.
	if jobs, parts := tc.coord.m.jobs.Value(), tc.coord.m.partitions.Value(); jobs != 0 || parts != 0 {
		t.Errorf("refused submits left %d jobs and %d partitions at the coordinator, want none", jobs, parts)
	}

	keys := testKeys(20000, 5)
	results := []struct {
		name        string
		binary      bool
		accept      string
		contentType string
	}{
		{"JSON submit, no Accept", false, "", "application/json"},
		{"JSON submit, Accept */*", false, "*/*", "application/json"},
		{"JSON submit, wire download", false, wire.ContentType, wire.ContentType},
		{"binary submit, JSON download", true, "application/json", "application/json"},
		{"binary submit, wire download", true, "text/html, " + wire.ContentType + ";q=0.9", wire.ContentType},
	}
	for i, row := range results {
		t.Run(row.name, func(t *testing.T) {
			// Fresh keys per row: the coordinator's download is consume-once.
			for j := range keys {
				keys[j] += int64(i)
			}
			fromNode := sortVia(t, node.URL, keys, row.binary, row.accept)
			fromCoord := sortVia(t, tc.http.URL, keys, row.binary, row.accept)
			for _, a := range []answer{fromNode, fromCoord} {
				if a.status != http.StatusOK || !strings.HasPrefix(a.contentType, row.contentType) {
					t.Fatalf("download: HTTP %d Content-Type %q, want 200 %q", a.status, a.contentType, row.contentType)
				}
			}
			want := wantSorted(keys)
			if row.contentType != wire.ContentType {
				if !bytes.Equal(fromNode.body, fromCoord.body) {
					t.Fatalf("JSON results differ between tiers: node %d bytes, coordinator %d bytes",
						len(fromNode.body), len(fromCoord.body))
				}
				if got := fmt.Sprint(want); string(fromNode.body) != "["+strings.ReplaceAll(got[1:len(got)-1], " ", ",")+"]\n" {
					t.Fatalf("JSON result is not the sorted keys as one array and a newline")
				}
				return
			}
			// Frames follow the batches the tier's merge emits, so the two
			// streams may be cut differently; the keys they carry may not.
			for _, a := range []answer{fromNode, fromCoord} {
				got, err := wire.Decode(bytes.NewReader(a.body), int64(len(keys)), nil)
				if err != nil {
					t.Fatalf("decode wire result: %v", err)
				}
				checkResult(t, got, want)
			}
		})
	}
}
