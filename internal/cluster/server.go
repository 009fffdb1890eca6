package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"knlmlm/internal/edge"
	"knlmlm/internal/wire"
)

// Server is the coordinator's HTTP face. It serves a single mlmserve
// node's protocol from the node's own code (internal/edge) — POST
// /v1/sort (JSON or binary), job status, streamed result download with
// wire content negotiation, /healthz, /metrics — so loadgen and other
// clients point at a coordinator with no changes; /healthz additionally
// carries the fleet view (a "backends" array), which is also how a
// client can tell the tiers apart.
type Server struct {
	coord        *Coordinator
	mux          *http.ServeMux
	maxBodyBytes int64
	chunkElems   int
}

// ServerConfig describes a Server.
type ServerConfig struct {
	// Coordinator is the routing core. Required.
	Coordinator *Coordinator
	// MaxBodyBytes bounds submit bodies. Zero selects 256 MiB — the
	// coordinator exists to take jobs bigger than one node wants.
	MaxBodyBytes int64
	// ResultChunkElems is the JSON result streaming granularity. Zero
	// selects edge.DefaultResultChunkElems.
	ResultChunkElems int
}

// NewServer builds the HTTP front end.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: Coordinator is required")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	s := &Server{
		coord:        cfg.Coordinator,
		mux:          http.NewServeMux(),
		maxBodyBytes: cfg.MaxBodyBytes,
		chunkElems:   cfg.ResultChunkElems,
	}
	s.mux.HandleFunc("POST /v1/sort", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", edge.MetricsHandler(s.coord.Registry()))
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain flips healthz to 503 and waits for in-flight jobs.
func (s *Server) Drain(ctx context.Context) error { return s.coord.Drain(ctx) }

// jobStatus is the shared status body plus the coordinator's extras.
type jobStatus struct {
	edge.JobStatus
	Parts     int     `json:"parts,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	Skew      float64 `json:"skew,omitempty"`
	Resampled bool    `json:"resampled,omitempty"`
}

func statusOf(j *Job) jobStatus {
	j.mu.Lock()
	st := jobStatus{
		JobStatus: edge.NewJobStatus(j.id, j.state, j.n, j.err, j.enq, j.started, j.fin),
		Parts:     len(j.parts),
		Skew:      j.skew,
		Resampled: j.resampled,
	}
	j.mu.Unlock()
	st.Retries = j.Retries()
	return st
}

// handleSubmit decodes a binary body into the coordinator's key pool,
// as a node does, and hands it to Submit; a refused body goes straight
// back to the pool.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	pool := s.coord.keyPool
	req, fr, err := edge.DecodeSubmit(w, r, s.maxBodyBytes)
	if err == nil && req.KeyType != "" && req.KeyType != "i64" {
		// Splitters and the gather compare int64 cells; typed keys are a
		// node's to serve.
		err = fmt.Errorf("key_type %q is not served by the coordinator", req.KeyType)
	}
	if err == nil && fr != nil {
		req.Keys = pool.Get(int(fr.Total()))
		if e := fr.ReadInto(req.Keys); e != nil {
			err = fmt.Errorf("bad binary body: %w", e)
		}
	}
	if err == nil {
		// What a node would refuse is refused here, before any partition
		// is cut, not by every backend in turn.
		err = req.Check()
	}
	if err != nil {
		pool.Put(req.Keys)
		edge.RefuseSubmit(w, err)
		return
	}
	j, err := s.coord.Submit(req)
	if err != nil {
		pool.Put(req.Keys)
	}
	if errors.Is(err, errDraining) {
		edge.WriteJSON(w, http.StatusServiceUnavailable, edge.ErrorBody{Error: err.Error(), Code: "draining"})
		return
	} else if err != nil {
		edge.RefuseSubmit(w, err)
		return
	}
	if req.Wait {
		if err := j.Wait(r.Context()); err != nil {
			return // client went away; the job keeps running
		}
	}
	edge.WriteAccepted(w, j.ID(), req.Wait, statusOf(j))
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.coord.Lookup(r.PathValue("id"))
	if !ok {
		edge.WriteNotFound(w)
	}
	return j, ok
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

// handleResult streams the gathered result — chunked JSON array by
// default, the wire frame stream under Accept: application/x-mlm-keys.
// The gather runs inside this handler (backends -> socket); a
// client disconnect cancels the downloads. Consume-once, like the
// single node's spill results: a repeat GET answers 410 Gone.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	enc := &edge.ResultWriter{W: w, Wire: edge.AcceptsWire(r), Kind: wire.KindInt64, N: j.N(), ChunkElems: s.chunkElems}
	_, err := j.StreamResult(r.Context(), enc.WriteBatch)
	switch {
	case err == nil:
		_ = enc.Finish()
	case errors.Is(err, ErrNotReady):
		edge.WriteJSON(w, http.StatusConflict, edge.ErrorBody{Error: err.Error(), Code: "not-ready"})
	case errors.Is(err, ErrResultConsumed):
		edge.WriteJSON(w, http.StatusGone, edge.ErrorBody{Error: err.Error(), Code: "result-consumed"})
	case enc.Started() || r.Context().Err() != nil:
		// Bytes already on the wire (or the client left): the truncated
		// body is the only remaining failure signal.
	default:
		edge.WriteJSON(w, http.StatusInternalServerError, edge.ErrorBody{Error: err.Error(), Code: "cluster-merge"})
	}
}

// healthBody is the coordinator's /healthz payload: overall status plus
// the per-backend fleet view.
type healthBody struct {
	Status   string        `json:"status"`
	Draining bool          `json:"draining"`
	Backends []backendView `json:"backends"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := healthBody{
		Status:   "ok",
		Draining: s.coord.Draining(),
		Backends: s.coord.backendViews(),
	}
	code := http.StatusOK
	if body.Draining {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	up := 0
	for _, b := range body.Backends {
		if b.Up {
			up++
		}
	}
	if up == 0 && code == http.StatusOK {
		body.Status = "no-backends"
		code = http.StatusServiceUnavailable
	}
	edge.WriteJSON(w, code, body)
}
