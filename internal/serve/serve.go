// Package serve is the network front end of the sort service: a
// dependency-free HTTP/JSON API over internal/sched. It maps the
// scheduler's typed admission errors onto HTTP semantics (429 with
// Retry-After for overload, 413 for jobs that can never fit any tier's
// budget), streams large sorted results with chunked transfer encoding,
// and exposes the scheduler's sched_* families plus its own serve_*
// counters on /metrics in Prometheus text format. The /v1 protocol
// itself (bodies, submit decoding, negotiation, result encoders) is
// internal/edge's, shared with the coordinator; this package is what a
// node does behind it: the decode gate, the key pool, the job trace,
// typed keys, /debug/* and the scheduler's error mapping.
//
// Every result is delivered once, and a repeat GET answers 410 Gone: an
// in-memory job's key buffer returns to the key pool after its download.
// Spill-class results exist only as disk run files, and GET
// /v1/jobs/{id}/result runs the deferred k-way merge directly into the
// chunked response — the result never materializes in DDR. The merge is
// bound to the request context, so a mid-download disconnect cancels it
// and releases the run files and disk lease.
//
// Besides JSON the service negotiates a binary wire format
// (internal/wire, Content-Type application/x-mlm-keys). A binary
// submit carries the frame stream as its body — options ride query
// parameters — and decodes straight into a pooled key buffer sized
// from the stream header, with no intermediate allocation. A download
// with Accept: application/x-mlm-keys streams the sorted keys as
// frame-sized writes directly off Job.StreamResult, for in-memory and
// spilled jobs alike. JSON remains the default in both directions.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"knlmlm/internal/edge"
	"knlmlm/internal/mem"
	"knlmlm/internal/sched"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/wire"
)

// Config describes a Server.
type Config struct {
	// Scheduler is the service core. Required.
	Scheduler *sched.Scheduler
	// Registry is served on /metrics; pass the same registry the
	// scheduler publishes to so one scrape sees both layers. When nil a
	// private registry holds only the serve_* families.
	Registry *telemetry.Registry
	// MaxBodyBytes bounds POST /v1/sort request bodies. Zero selects
	// 64 MiB.
	MaxBodyBytes int64
	// KeyPool supplies the destination buffers for binary submit bodies.
	// Defaults to the scheduler's pool (Scheduler.KeyPool), closing the
	// recycle loop: upload decodes into a pooled buffer, the sort runs in
	// place, and the download (or retention eviction of a result nobody
	// downloaded) returns the buffer for the next upload. When the scheduler has no pool either, a private pool keeps
	// the decode path uniform (its buffers are simply never recycled).
	KeyPool *mem.SlicePool
	// DecodeConcurrency bounds how many submit bodies decode at once.
	// Parsing a large key array costs about as much CPU as sorting it, so
	// unbounded concurrent decodes are an unmodeled second queue in front
	// of the scheduler: under overload they starve the very pipelines the
	// admission model prices. A submit waits for a decode slot — up to its
	// X-Deadline-Ms when it carries one (then 429 "ingest-busy"),
	// indefinitely otherwise. Zero selects max(2, GOMAXPROCS).
	DecodeConcurrency int
	// Logger, when non-nil, receives structured request-level events
	// (submissions accepted/rejected) with job and tenant attributes.
	Logger *slog.Logger
}

// Server is the HTTP front end. It implements http.Handler.
type Server struct {
	cfg         Config
	sched       *sched.Scheduler
	mux         *http.ServeMux
	draining    atomic.Bool
	logger      *slog.Logger
	gate        chan struct{}
	gateWaiters atomic.Int64

	requests *telemetry.Counter
	inflight *telemetry.Gauge
	latency  *telemetry.Histogram
}

// New builds a Server over a running scheduler.
func New(cfg Config) (*Server, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("serve: Scheduler is required")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.KeyPool == nil {
		cfg.KeyPool = cfg.Scheduler.KeyPool()
	}
	if cfg.KeyPool == nil {
		cfg.KeyPool = mem.NewSlicePool()
	}
	if cfg.DecodeConcurrency <= 0 {
		cfg.DecodeConcurrency = runtime.GOMAXPROCS(0)
		if cfg.DecodeConcurrency < 2 {
			cfg.DecodeConcurrency = 2
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		sched: cfg.Scheduler,
		mux:   http.NewServeMux(),
		gate:  make(chan struct{}, cfg.DecodeConcurrency),
		requests: reg.Counter("serve_requests_total",
			"HTTP requests accepted by the sort service.", nil),
		inflight: reg.Gauge("serve_requests_inflight",
			"HTTP requests currently being handled.", nil),
		latency: reg.Histogram("serve_request_seconds",
			"HTTP request handling latency.", nil, telemetry.DefLatencyBuckets()),
	}
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = telemetry.NopLogger()
	}
	s.mux.HandleFunc("POST /v1/sort", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", edge.MetricsHandler(reg))
	s.mux.HandleFunc("GET /debug/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	s.mux.HandleFunc("GET /debug/overload", s.handleOverload)
	return s, nil
}

// ServeHTTP dispatches with request accounting.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.latency.Observe(time.Since(start).Seconds())
	}()
	s.mux.ServeHTTP(w, r)
}

// Drain marks the server draining (healthz flips to 503 so load
// balancers stop routing here), stops admissions, and waits for every
// queued and running job to resolve. Call before http.Server.Shutdown
// for a connection-complete graceful stop.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.sched.Drain(ctx)
}

func statusOf(j *sched.Job) edge.JobStatus {
	enq, sta, fin := j.Times()
	st := edge.NewJobStatus(j.ID(), j.State().String(), j.N(), j.Err(), enq, sta, fin)
	if kt := j.KeyType(); kt != wire.KindInt64 {
		st.KeyType = kt.String()
	}
	if w := j.QueueWait(); w > 0 {
		st.QueueWait = w.String()
	}
	if lb := j.LeaseBytes(); lb > 0 {
		st.LeaseBytes = lb
	}
	if j.Spilled() {
		st.Spilled = true
		st.DiskLeaseBytes = j.DiskLeaseBytes()
	}
	st.Shed = errors.Is(j.Err(), sched.ErrShed)
	return st
}

// writeSchedError maps the scheduler's typed errors to HTTP statuses:
// overload (retryable) becomes 429 with a Retry-After header, too-large
// (never admittable) becomes 413, an already-expired deadline becomes
// 400, closed becomes 503.
func writeSchedError(w http.ResponseWriter, err error) {
	var oe *sched.OverloadError
	switch {
	case errors.As(err, &oe):
		// Retry-After is whole seconds on the wire (RFC 9110); round UP so
		// a sub-second hint never renders as "0" and invites a hot retry
		// loop. The JSON body keeps the millisecond-precision hint.
		secs := int64((oe.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		edge.WriteJSON(w, http.StatusTooManyRequests, edge.ErrorBody{
			Error:           err.Error(),
			Code:            "overloaded-" + oe.Reason,
			RetryAfterMS:    oe.RetryAfter.Milliseconds(),
			PredictedWaitMS: oe.PredictedWait.Milliseconds(),
		})
	case errors.Is(err, sched.ErrTooLarge):
		edge.WriteJSON(w, http.StatusRequestEntityTooLarge, edge.ErrorBody{
			Error: err.Error(), Code: "too-large",
		})
	case errors.Is(err, sched.ErrDeadlineExpired):
		// Retrying an already-expired deadline can never succeed; this is
		// a client error, not backpressure.
		edge.WriteJSON(w, http.StatusBadRequest, edge.ErrorBody{
			Error: err.Error(), Code: "deadline-expired",
		})
	case errors.Is(err, sched.ErrBadSpec):
		edge.WriteJSON(w, http.StatusBadRequest, edge.ErrorBody{
			Error: err.Error(), Code: "bad-request",
		})
	case errors.Is(err, sched.ErrClosed):
		edge.WriteJSON(w, http.StatusServiceUnavailable, edge.ErrorBody{
			Error: err.Error(), Code: "closed",
		})
	default:
		edge.WriteJSON(w, http.StatusInternalServerError, edge.ErrorBody{
			Error: err.Error(), Code: "internal",
		})
	}
}

// classifySubmitErr reclassifies a deadline expiry on a relative-deadline
// request. The wire deadline is deadline_ms relative to decode time, so
// Submit can only see it already expired when admission latency (decode
// backlog, scheduler lock contention) ate the whole budget — that is
// overload, not a malformed request: a retry restarts the relative
// window and may well succeed. The Retry-After hint is the deadline
// budget itself — by construction the server currently needs longer than
// that to admit anything. Absolute expiry with no wire deadline keeps
// the non-retryable 400 mapping.
func classifySubmitErr(err error, deadlineMS int64) error {
	if deadlineMS > 0 && errors.Is(err, sched.ErrDeadlineExpired) {
		return &sched.OverloadError{
			Reason:     "admission-latency",
			RetryAfter: time.Duration(deadlineMS) * time.Millisecond,
		}
	}
	return err
}

// parseKeyType validates the request's key_type. Typed keys (f64, rec)
// exist only on the binary wire path: a JSON array of integers cannot
// carry float bits or key/payload pairing without inventing a second
// in-band encoding, so a JSON submit naming a typed key is a client
// error, not something to coerce.
func parseKeyType(name string, binary bool) (wire.Kind, error) {
	if name == "" {
		return wire.KindInt64, nil
	}
	k, ok := wire.ParseKind(name)
	if !ok {
		return 0, fmt.Errorf("unknown key_type %q", name)
	}
	if k != wire.KindInt64 && !binary {
		return 0, fmt.Errorf("key_type %q requires a binary submit (Content-Type %s; kind=%s)", name, wire.ContentType, name)
	}
	return k, nil
}

// acquireGate takes a decode slot for a submit. A request carrying a
// relative deadline waits at most that long and is answered with a
// retryable 429 "ingest-busy" on timeout — or instantly when the ingest
// line is already several gate-widths deep, because joining a hopeless
// line just parks a goroutine for a deadline's worth of nothing (the
// thundering-herd tax under deep overload). One without a deadline waits
// until a slot frees or the client goes away. Reports whether the slot
// was acquired (false means the response, if any, was already written).
func (s *Server) acquireGate(r *http.Request, w http.ResponseWriter, hdrDeadline time.Duration) bool {
	select {
	case s.gate <- struct{}{}:
		return true
	default:
	}
	if hdrDeadline > 0 {
		if s.gateWaiters.Load() >= int64(4*cap(s.gate)) {
			writeSchedError(w, &sched.OverloadError{Reason: "ingest-busy", RetryAfter: hdrDeadline})
			return false
		}
		s.gateWaiters.Add(1)
		defer s.gateWaiters.Add(-1)
		t := time.NewTimer(hdrDeadline)
		defer t.Stop()
		select {
		case s.gate <- struct{}{}:
			return true
		case <-t.C:
			writeSchedError(w, &sched.OverloadError{Reason: "ingest-busy", RetryAfter: hdrDeadline})
			return false
		case <-r.Context().Done():
			return false
		}
	}
	select {
	case s.gate <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The trace is born at the HTTP edge, before the body is read, so the
	// admit phase covers decode + admission — the request-scoped handle
	// every lower layer records into.
	tr := telemetry.NewJobTrace()
	tr.Event("http-receive")
	// Pre-decode shedding: a client that carries its start deadline in the
	// X-Deadline-Ms header lets the model refuse a doomed request before
	// its body is parsed. Decoding a large key array costs about as much
	// CPU as sorting it, so under deep overload a server that decodes
	// before rejecting spends its capacity on requests it then refuses —
	// goodput collapses exactly when backpressure matters most. The body's
	// deadline_ms (checked after decode) stays authoritative.
	hdrDeadline := time.Duration(edge.HeaderDeadlineMS(r)) * time.Millisecond
	if hdrDeadline > 0 {
		if err := s.sched.PreAdmit(hdrDeadline); err != nil {
			writeSchedError(w, err)
			return
		}
	}
	// Decode gate: bounded concurrent body parsing. Waiting costs nothing
	// but time; a deadlined request only waits as long as its own deadline
	// budget before taking a backpressure answer.
	if !s.acquireGate(r, w, hdrDeadline) {
		return
	}
	gateHeld := true
	releaseGate := func() {
		if gateHeld {
			gateHeld = false
			<-s.gate
		}
	}
	defer releaseGate()
	if hdrDeadline > 0 {
		// Re-check with the slot held: the backlog may have grown while
		// this request waited in the ingest line.
		if err := s.sched.PreAdmit(hdrDeadline); err != nil {
			writeSchedError(w, err)
			return
		}
	}
	// A binary body decodes straight into a pooled key buffer sized from
	// the stream header, with no intermediate allocation; the buffer goes
	// back to the pool on any failure before the scheduler takes it.
	req, fr, err := edge.DecodeSubmit(w, r, s.cfg.MaxBodyBytes)
	pooled := false
	if err == nil && fr != nil {
		if req.Keys = s.cfg.KeyPool.Get(int(fr.Total())); req.Keys == nil {
			req.Keys = make([]int64, fr.Total())
		}
		pooled = true
		if e := fr.ReadInto(req.Keys); e != nil {
			err = fmt.Errorf("bad binary body: %w", e)
		}
	}
	recycle := func() {
		if pooled {
			pooled = false
			s.cfg.KeyPool.Put(req.Keys)
		}
	}
	if err == nil {
		err = req.Check()
	}
	var keyType wire.Kind
	if err == nil {
		keyType, err = parseKeyType(req.KeyType, fr != nil)
	}
	if err != nil {
		recycle()
		edge.RefuseSubmit(w, err)
		return
	}
	tr.EventDetail("decoded", strconv.Itoa(len(req.Keys))+" keys")
	// The slot covers parsing only: a Wait-mode handler lingers for the
	// whole sort, and holding ingest capacity across it would let a few
	// slow jobs stall the front door.
	releaseGate()
	spec := sched.JobSpec{
		Data:         req.Keys,
		KeyType:      keyType,
		Priority:     req.Priority,
		MegachunkLen: req.MegachunkLen,
		Tenant:       r.Header.Get("X-Tenant"),
		Trace:        tr,
	}
	if req.DeadlineMS > 0 {
		spec.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	j, err := s.sched.SubmitCtx(telemetry.WithTrace(r.Context(), tr), spec)
	if err != nil {
		recycle()
		writeSchedError(w, classifySubmitErr(err, req.DeadlineMS))
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "job accepted",
		slog.String("job", j.ID()),
		slog.String("tenant", spec.Tenant),
		slog.Int("n", j.N()),
		slog.Bool("spilled", j.Spilled()))
	if req.Wait {
		if err := j.Wait(r.Context()); err != nil && r.Context().Err() != nil {
			// Client went away; the job keeps running server-side.
			return
		}
	}
	edge.WriteAccepted(w, j.ID(), req.Wait, statusOf(j))
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*sched.Job, bool) {
	j, ok := s.sched.Lookup(r.PathValue("id"))
	if !ok {
		edge.WriteNotFound(w)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		edge.WriteJSON(w, http.StatusOK, statusOf(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j.Cancel()
	edge.WriteJSON(w, http.StatusOK, statusOf(j))
}

// handleResult streams the sorted keys — as a chunked JSON array by
// default, as the binary frame stream when the client sends Accept:
// application/x-mlm-keys. Both encodings ride Job.StreamResult: an
// in-memory job delivers its (possibly pooled) result buffer in one
// batch and hands it back to the key pool, a spill-class job runs its
// deferred k-way merge straight into the response (disk -> merge ->
// socket, never materialized in DDR). The merge is bound to the request
// context, so a client disconnect cancels it and releases the run files
// and disk lease. Every result is consume-once: a repeat GET answers 410
// Gone. A GET refused before streaming (not ready, failed or canceled,
// a typed result asked as JSON) consumes nothing.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !j.State().Terminal() {
		edge.WriteJSON(w, http.StatusConflict, edge.ErrorBody{Error: "job still " + j.State().String(), Code: "not-ready"})
		return
	}
	if err := j.Err(); err != nil {
		edge.WriteJSON(w, http.StatusConflict, edge.ErrorBody{Error: err.Error(), Code: "job-" + j.State().String()})
		return
	}
	kt := j.KeyType()
	enc := &edge.ResultWriter{
		W: w, Wire: edge.AcceptsWire(r), Kind: kt, N: j.N(), Spilled: j.Spilled(),
	}
	if !enc.Wire && kt != wire.KindInt64 {
		// Same asymmetry as submit: float bits and key/payload pairs have
		// no JSON representation here, so a typed result is wire-only.
		edge.WriteJSON(w, http.StatusBadRequest, edge.ErrorBody{
			Error: fmt.Sprintf("job has %s keys; download with Accept: %s", kt, wire.ContentTypeFor(kt)),
			Code:  "bad-request",
		})
		return
	}
	var werr error
	_, err := j.StreamResult(r.Context(), func(batch []int64) error {
		if e := enc.WriteBatch(batch); e != nil {
			werr = e
			return e
		}
		return nil
	})
	switch {
	case err == nil:
		_ = enc.Finish()
	case werr != nil || r.Context().Err() != nil:
		// The client went away mid-stream; the response is unfinishable
		// and the stream already released the job's resources.
	case errors.Is(err, sched.ErrResultConsumed):
		edge.WriteJSON(w, http.StatusGone, edge.ErrorBody{Error: err.Error(), Code: "result-consumed"})
	case enc.Started():
		// Failure after bytes hit the wire: the truncated body (no closing
		// bracket, no end-of-stream marker) is the only signal left.
	default:
		edge.WriteJSON(w, http.StatusInternalServerError, edge.ErrorBody{Error: err.Error(), Code: "spill-merge"})
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	snap := s.sched.Snapshot()
	rates := s.sched.Rates()
	body := edge.Health{
		Status:           "ok",
		Draining:         s.draining.Load() || snap.Draining,
		Queued:           snap.Queued,
		Running:          snap.Running,
		LeasedBytes:      int64(snap.LeasedBytes),
		BudgetBytes:      int64(snap.BudgetBytes),
		DiskLeasedBytes:  int64(snap.DiskLeasedBytes),
		DiskBudgetBytes:  int64(snap.DiskBudgetBytes),
		Brownout:         snap.Brownout.String(),
		BrownoutLevel:    int(snap.Brownout),
		QueueDelayEWMAMS: float64(snap.QueueDelayEWMA.Nanoseconds()) / 1e6,
		Capacity: edge.Capacity{
			HeadroomBytes:    int64(snap.BudgetBytes) - int64(snap.LeasedBytes),
			QueueDepth:       snap.Queued,
			BrownoutLevel:    int(snap.Brownout),
			EWMACopyBps:      float64(rates.SCopy),
			EWMACompBps:      float64(rates.SComp),
			Threads:          s.sched.TotalThreads(),
			PredictedStartMS: float64(snap.PredictedStart.Nanoseconds()) / 1e6,
		},
	}
	code := http.StatusOK
	if body.Draining {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	edge.WriteJSON(w, code, body)
}
