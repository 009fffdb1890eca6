// Package edge is the /v1 sort protocol, written once: the request and
// response bodies, submit decoding, content negotiation, the streamed
// result encoders (result.go) and the daemon shell (daemon.go). The
// node (internal/serve) and the coordinator (internal/cluster) serve it
// from this code, and the coordinator's backend client decodes the
// structs the node encodes, so a change to the protocol is made in one
// place. It imports neither tier: what a tier does with a decoded
// request, and how it maps its own errors, stays in that tier.
package edge

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"knlmlm/internal/mlmsort"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/wire"
)

const (
	// SubmitPath is the submit endpoint.
	SubmitPath = "/v1/sort"
	// DeadlineHeader carries a submit's start deadline in milliseconds
	// where the server can read it before the body: a node sheds a doomed
	// request pre-decode, and a binary submit without a deadline_ms query
	// parameter takes it as its deadline.
	DeadlineHeader = "X-Deadline-Ms"
	// StateDone is the job state that has a result to download.
	StateDone = "done"
)

// JobPath is a job's status (GET) and cancel (DELETE) URL path.
func JobPath(id string) string { return "/v1/jobs/" + id }

// ResultPath is a job's result download URL path.
func ResultPath(id string) string { return JobPath(id) + "/result" }

// SortRequest is the POST /v1/sort body. A binary submit carries the
// keys as its body and the other fields as query parameters.
type SortRequest struct {
	// Keys are the int64 keys to sort.
	Keys []int64 `json:"keys"`
	// KeyType names the key representation ("i64" default). The typed
	// kinds ("f64" raw IEEE-754 bit cells, "rec" interleaved key/payload
	// cell pairs) are binary-wire-only: JSON has no lossless carrier for
	// 64-bit float payloads or record pairs, so a JSON submit naming one
	// is a 400. On binary submits the field is implied by the
	// Content-Type kind parameter.
	KeyType string `json:"key_type,omitempty"`
	// Priority orders admission (higher sooner; default 0).
	Priority int `json:"priority,omitempty"`
	// DeadlineMS, when positive, is a start deadline relative to arrival.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Algorithm names the sort variant. Empty leaves the data flow to the
	// node's scheduler; "MLM-sort", the one name accepted, asks for
	// megachunks staged through triple buffers.
	Algorithm string `json:"algorithm,omitempty"`
	// MegachunkLen overrides automatic budget-aware megachunk sizing.
	MegachunkLen int `json:"megachunk_len,omitempty"`
	// Wait holds the response until the job is terminal (long poll).
	Wait bool `json:"wait,omitempty"`
}

// JobStatus is the status body of a job. A node fills all of it; the
// coordinator fills the fields from NewJobStatus and appends its own.
type JobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	N          int    `json:"n"`
	QueueWait  string `json:"queue_wait,omitempty"`
	LeaseBytes int64  `json:"lease_bytes,omitempty"`
	// KeyType is the job's key representation ("f64", "rec"); omitted
	// for plain int64 jobs.
	KeyType string `json:"key_type,omitempty"`
	// Spilled marks a spill-class job: its result is produced by a
	// consume-once streaming merge at ResultURL.
	Spilled        bool  `json:"spilled,omitempty"`
	DiskLeaseBytes int64 `json:"disk_lease_bytes,omitempty"`
	// Shed marks a job the scheduler itself evicted under overload
	// control (deadline infeasible, brownout) — distinct from a client
	// cancel and safe to retry later.
	Shed      bool   `json:"shed,omitempty"`
	Error     string `json:"error,omitempty"`
	ResultURL string `json:"result_url,omitempty"`
	Enqueued  string `json:"enqueued,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
}

// NewJobStatus fills the fields every tier reports the same way: the
// error text, the result URL once the job is done, and the lifecycle
// instants as RFC 3339 UTC (omitted while zero).
func NewJobStatus(id, state string, n int, err error, enq, started, fin time.Time) JobStatus {
	st := JobStatus{ID: id, State: state, N: n}
	if err != nil {
		st.Error = err.Error()
	}
	if state == StateDone {
		st.ResultURL = ResultPath(id)
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.Enqueued, st.Started, st.Finished = stamp(enq), stamp(started), stamp(fin)
	return st
}

// ErrorBody is the body of every non-2xx response.
type ErrorBody struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// PredictedWaitMS, on predicted-late overload rejections, is the
	// model-predicted start delay that sank the deadline.
	PredictedWaitMS int64 `json:"predicted_wait_ms,omitempty"`
}

// Health is a node's /healthz payload.
type Health struct {
	Status      string `json:"status"`
	Draining    bool   `json:"draining"`
	Queued      int    `json:"queued"`
	Running     int    `json:"running"`
	LeasedBytes int64  `json:"leased_bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
	// Disk-tier ledger state; zero when the spill class is disabled.
	DiskLeasedBytes int64 `json:"disk_leased_bytes,omitempty"`
	DiskBudgetBytes int64 `json:"disk_budget_bytes,omitempty"`
	// Brownout is the scheduler's overload degradation state: the level
	// name ("normal", "shed-spill", "critical-only"), its numeric value
	// (0 to 2), and the smoothed queue-delay signal driving it.
	// The endpoint stays 200 while browned out — the service is degraded
	// on purpose, not unhealthy, and load balancers must keep routing.
	Brownout         string  `json:"brownout"`
	BrownoutLevel    int     `json:"brownout_level"`
	QueueDelayEWMAMS float64 `json:"queue_delay_ewma_ms,omitempty"`
	// Capacity is the compact routing block a cluster coordinator polls:
	// everything a bandwidth-aware router needs to weight this node, in
	// one cheap GET instead of a /metrics scrape.
	Capacity Capacity `json:"capacity"`
}

// Capacity summarizes a node's headroom for an upstream router. The
// rates are the scheduler's Eq. 1-5 parameters (the paper's Table 2),
// per thread, so the poller can re-solve the model with this node's
// thread budget and derive a comparable predicted service rate per node.
// The ewma_* JSON names predate the rates being fixed; mixed fleets and
// the tier conformance test read them, so they stay.
type Capacity struct {
	// HeadroomBytes is the unleased remainder of the MCDRAM staging
	// budget — how much working set a new job could lease right now.
	HeadroomBytes int64 `json:"headroom_bytes"`
	QueueDepth    int   `json:"queue_depth"`
	BrownoutLevel int   `json:"brownout_level"`
	// EWMACopyBps/EWMACompBps are the per-thread copy and compute rates
	// (bytes/sec) the admission model currently runs on.
	EWMACopyBps float64 `json:"ewma_copy_bps"`
	EWMACompBps float64 `json:"ewma_comp_bps"`
	// Threads is the node's fair-shared thread budget.
	Threads int `json:"threads"`
	// PredictedStartMS is the model-predicted start delay a job admitted
	// now would see — the same figure PreAdmit sheds against.
	PredictedStartMS float64 `json:"predicted_start_ms"`
}

// WriteJSON answers with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteAccepted answers a successful submit: 200 once a wait=true job
// is terminal, 202 with the job's Location otherwise.
func WriteAccepted(w http.ResponseWriter, id string, waited bool, status any) {
	if waited {
		WriteJSON(w, http.StatusOK, status)
		return
	}
	w.Header().Set("Location", JobPath(id))
	WriteJSON(w, http.StatusAccepted, status)
}

// WriteNotFound answers a request naming a job the tier does not hold.
func WriteNotFound(w http.ResponseWriter) {
	WriteJSON(w, http.StatusNotFound, ErrorBody{Error: "unknown job", Code: "not-found"})
}

// MetricsHandler serves reg in Prometheus text format.
func MetricsHandler(reg *telemetry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		// A write error here means the scraper disconnected mid-response;
		// there is nothing left to signal it to.
		_ = reg.WritePrometheus(w)
	}
}

// IsWireContentType matches a Content-Type header against the binary
// key-stream media type, ignoring parameters (charset etc.).
func IsWireContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), wire.ContentType)
}

// AcceptsWire reports whether the request's Accept list names the
// binary key stream. Anything else — absent header, */*, JSON — keeps
// the JSON default, so only clients that ask for frames get frames.
func AcceptsWire(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if IsWireContentType(part) {
			return true
		}
	}
	return false
}

// ParseAlgorithm maps a request's algorithm name to the sort variant: one
// name per data flow. No name is the zero Algorithm, which the scheduler
// alone resolves to its default.
func ParseAlgorithm(name string) (mlmsort.Algorithm, error) {
	switch name {
	case "":
		return 0, nil
	case "MLM-sort":
		return mlmsort.MLMSort, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want MLM-sort, or none for the node's default)", name)
	}
}

// HeaderDeadlineMS reads DeadlineHeader; zero when absent or malformed.
func HeaderDeadlineMS(r *http.Request) int64 {
	ms, err := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return ms
}

var (
	errEmptyKeys = errors.New("keys must be non-empty")
	// errTooLarge marks a submit refused for its size; RefuseSubmit
	// answers it, like a body cut off by http.MaxBytesReader, with 413.
	errTooLarge = errors.New("exceeds body limit")
)

// queryOptions reads the options a binary submit carries as query
// parameters (priority, deadline_ms, algorithm, megachunk_len, wait);
// DeadlineHeader doubles as deadline_ms when the query omits it.
func queryOptions(r *http.Request) (req SortRequest, err error) {
	q := r.URL.Query()
	if v := q.Get("priority"); v != "" {
		if req.Priority, err = strconv.Atoi(v); err != nil {
			return req, errors.New("bad priority: " + v)
		}
	}
	if v := q.Get("deadline_ms"); v != "" {
		if req.DeadlineMS, err = strconv.ParseInt(v, 10, 64); err != nil {
			return req, errors.New("bad deadline_ms: " + v)
		}
	}
	if v := q.Get("megachunk_len"); v != "" {
		if req.MegachunkLen, err = strconv.Atoi(v); err != nil {
			return req, errors.New("bad megachunk_len: " + v)
		}
	}
	req.Algorithm = q.Get("algorithm")
	req.Wait = q.Get("wait") == "1" || strings.EqualFold(q.Get("wait"), "true")
	if req.DeadlineMS == 0 {
		req.DeadlineMS = HeaderDeadlineMS(r)
	}
	return req, nil
}

// NewWireSubmit builds the binary submit of int64 keys that
// queryOptions and DecodeSubmit take apart: the keys as the frame-stream
// body, the options as query parameters, the deadline in
// DeadlineHeader. It reports the body size. The body is read from
// req.Keys as it is sent (wire.EncodeReader), so the keys must not
// change until the transport has closed it; GetBody rewinds it for a
// resend.
func NewWireSubmit(ctx context.Context, base string, req SortRequest) (*http.Request, int, error) {
	q := url.Values{}
	if req.Wait {
		q.Set("wait", "1")
	}
	if req.Priority != 0 {
		q.Set("priority", strconv.Itoa(req.Priority))
	}
	if req.Algorithm != "" {
		q.Set("algorithm", req.Algorithm)
	}
	if req.MegachunkLen > 0 {
		q.Set("megachunk_len", strconv.Itoa(req.MegachunkLen))
	}
	keys := req.Keys
	body := wire.NewEncodeReader(keys, 0)
	size := body.Len()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+SubmitPath+"?"+q.Encode(), body)
	if err != nil {
		return nil, 0, err
	}
	hr.ContentLength = int64(size)
	hr.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(wire.NewEncodeReader(keys, 0)), nil }
	hr.Header.Set("Content-Type", wire.ContentType)
	if req.DeadlineMS > 0 {
		hr.Header.Set(DeadlineHeader, strconv.FormatInt(req.DeadlineMS, 10))
	}
	return hr, size, nil
}

// DecodeSubmit decodes a POST /v1/sort request as far as the tiers
// agree. A JSON body is decoded whole and fr is nil. For a binary body
// (Content-Type application/x-mlm-keys) the options come from the
// query, req.KeyType from the stream, and fr is the open frame reader:
// its header is read and checked — kind against Content-Type, the exact
// element count against maxBody — before any buffer is sized, and the
// caller drains it with fr.ReadInto into memory of its own choosing.
// Every error is one RefuseSubmit answers.
func DecodeSubmit(w http.ResponseWriter, r *http.Request, maxBody int64) (req SortRequest, fr *wire.Reader, err error) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	ct := r.Header.Get("Content-Type")
	if !IsWireContentType(ct) {
		dec := json.NewDecoder(body)
		if err := dec.Decode(&req); err != nil {
			return req, nil, fmt.Errorf("bad request body: %w", err)
		}
		// One JSON value is the whole body: trailing non-whitespace (a
		// second object, smuggled garbage) is a malformed request, not
		// something to silently ignore.
		if _, err := dec.Token(); err != io.EOF {
			return req, nil, errors.New("trailing data after JSON body")
		}
		return req, nil, nil
	}
	if req, err = queryOptions(r); err != nil {
		return req, nil, err
	}
	kind, ok := wire.KindFromContentType(ct)
	if !ok {
		return req, nil, errors.New("unknown key kind in Content-Type " + ct)
	}
	if fr, err = wire.NewReaderAnyKind(body); err != nil {
		return req, nil, fmt.Errorf("bad binary body: %w", err)
	}
	if fr.Kind() != kind {
		// The stream magic is authoritative; a mismatched Content-Type
		// means a proxy rewrote headers or the client lied — either way
		// the bytes cannot be interpreted as declared.
		return req, nil, fmt.Errorf("stream kind %v does not match Content-Type kind %v", fr.Kind(), kind)
	}
	req.KeyType = kind.String()
	if fr.Total() <= 0 {
		return req, nil, errEmptyKeys
	}
	if fr.Total() > maxBody/8 {
		return req, nil, fmt.Errorf("declared %d keys %w", fr.Total(), errTooLarge)
	}
	return req, fr, nil
}

// Check validates what both tiers refuse before admitting a decoded
// request: an empty key array and an unknown algorithm.
func (req *SortRequest) Check() (mlmsort.Algorithm, error) {
	if len(req.Keys) == 0 {
		return 0, errEmptyKeys
	}
	return ParseAlgorithm(req.Algorithm)
}

// RefuseSubmit answers a submit that DecodeSubmit, the body read or
// Check turned away: 413 too-large when the body overran its limit, 400
// bad-request otherwise.
func RefuseSubmit(w http.ResponseWriter, err error) {
	var cut *http.MaxBytesError
	if errors.As(err, &cut) || errors.Is(err, errTooLarge) {
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorBody{Error: err.Error(), Code: "too-large"})
		return
	}
	WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: "bad-request"})
}
