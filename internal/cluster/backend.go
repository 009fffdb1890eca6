package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"knlmlm/internal/edge"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/wire"
)

// backend is the coordinator's client handle on one mlmserve node: its
// last capacity poll, its up/down verdict, and the typed submit and
// download calls the partition state machine drives. All network faults
// funnel through the ConnFaults hooks so chaos tests can sever exactly
// one backend deterministically.
type backend struct {
	idx  int
	base string

	client *http.Client
	faults ConnFaults

	mu       sync.Mutex
	up       bool
	lastPoll time.Time
	cap      edge.Capacity

	bytesRouted *telemetry.Counter
	upGauge     *telemetry.Gauge
}

// backpressureError marks a 429 or a job the backend admitted and then
// shed: the backend is alive but refusing work, so the right response is
// a bounded wait, not a failover.
type backpressureError struct {
	backend    int
	retryAfter time.Duration
	code       string
}

func (e *backpressureError) Error() string {
	return fmt.Sprintf("cluster: backend %d backpressure (%s, retry in %v)", e.backend, e.code, e.retryAfter)
}

// backpressure builds the error for a refusal with the backend's retry
// hint, or a quarter second when it gave none.
func (b *backend) backpressure(code string, retryAfter time.Duration) error {
	if retryAfter <= 0 {
		retryAfter = 250 * time.Millisecond
	}
	return &backpressureError{backend: b.idx, retryAfter: retryAfter, code: code}
}

// dialError marks a connection-level failure (refused dial, severed
// stream, injected kill): the backend may be dead, so the partition
// should fail over.
type dialError struct {
	backend int
	err     error
}

func (e *dialError) Error() string {
	return fmt.Sprintf("cluster: backend %d unreachable: %v", e.backend, e.err)
}

func (e *dialError) Unwrap() error { return e.err }

// poll refreshes the backend's capacity snapshot from /healthz. A
// draining or unreachable node is marked down; the router then routes
// around it until a later poll succeeds.
func (b *backend) poll(client *http.Client) {
	ok, cap := func() (bool, edge.Capacity) {
		req, err := http.NewRequest(http.MethodGet, b.base+"/healthz", nil)
		if err != nil {
			return false, edge.Capacity{}
		}
		resp, err := client.Do(req)
		if err != nil {
			return false, edge.Capacity{}
		}
		defer resp.Body.Close()
		var h edge.Health
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
			return false, edge.Capacity{}
		}
		// A draining node answers 503 with a well-formed body: down for
		// routing purposes even though the poll succeeded.
		return resp.StatusCode == http.StatusOK && !h.Draining, h.Capacity
	}()
	b.mu.Lock()
	b.up = ok
	b.lastPoll = time.Now()
	if ok {
		b.cap = cap
	}
	b.mu.Unlock()
	if b.upGauge != nil {
		if ok {
			b.upGauge.Set(1)
		} else {
			b.upGauge.Set(0)
		}
	}
}

func (b *backend) isUp() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.up
}

func (b *backend) markDown() {
	b.mu.Lock()
	b.up = false
	b.mu.Unlock()
	if b.upGauge != nil {
		b.upGauge.Set(0)
	}
}

func (b *backend) snapshot() (bool, edge.Capacity) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.up, b.cap
}

// expectContinueBytes is the body size past which a submit rides
// Expect: 100-continue. For a big partition the header round-trip is
// cheap insurance — a backend whose admission model predicts a miss
// sheds the request before a single payload byte is sent (PR 8's
// pre-decode shedding, working across the wire). For a small one the
// handshake is pure toll: a loaded backend that defers reading the body
// (decode gate) never sends the interim 100, the transport waits out
// its full ExpectContinueTimeout before uploading anyway, and that stall
// idles backend workers the queue could have fed.
const expectContinueBytes = 4 << 20

// submitSorted uploads keys as one binary sort job and blocks (wait=1)
// until the backend reports it terminal, returning the remote job ID.
// Large bodies ride Expect: 100-continue with the deadline in
// edge.DeadlineHeader, so the backend can refuse them pre-upload. The
// body reads keys as it is sent, and the transport may close it after
// Do returns, so submitSorted returns only once every body it opened is
// closed (or ctx is done): after it, no upload reads keys.
func (b *backend) submitSorted(ctx context.Context, keys []int64, opts edge.SortRequest) (string, error) {
	if b.faults != nil && b.faults.FailDial(b.idx) {
		b.markDown()
		return "", &dialError{backend: b.idx, err: errInjectedDial}
	}
	opts.Keys, opts.Wait = keys, true
	req, size, err := edge.NewWireSubmit(ctx, b.base, opts)
	if err != nil {
		return "", err
	}
	if size >= expectContinueBytes || opts.DeadlineMS > 0 {
		req.Header.Set("Expect", "100-continue")
	}
	var open sync.WaitGroup
	req.Body = trackBody(req.Body, &open)
	getBody := req.GetBody
	req.GetBody = func() (io.ReadCloser, error) {
		rc, err := getBody()
		if err != nil {
			return nil, err
		}
		return trackBody(rc, &open), nil
	}
	defer func() {
		closed := make(chan struct{})
		go func() { open.Wait(); close(closed) }()
		select {
		case <-closed:
		case <-ctx.Done():
		}
	}()
	resp, err := b.client.Do(req)
	if err != nil {
		b.markDown()
		return "", &dialError{backend: b.idx, err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		b.markDown()
		return "", &dialError{backend: b.idx, err: err}
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		var re edge.ErrorBody
		_ = json.Unmarshal(raw, &re)
		if resp.StatusCode == http.StatusTooManyRequests {
			return "", b.backpressure(re.Code, time.Duration(re.RetryAfterMS)*time.Millisecond)
		}
		return "", fmt.Errorf("cluster: backend %d submit: HTTP %d %s %s", b.idx, resp.StatusCode, re.Code, re.Error)
	}
	var st edge.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return "", fmt.Errorf("cluster: backend %d submit: bad status body: %w", b.idx, err)
	}
	if st.Shed {
		// The backend admitted the job, then its overload controller
		// evicted it — retryable by the same rules as a 429.
		return "", b.backpressure("shed", 0)
	}
	if st.State != edge.StateDone {
		return "", fmt.Errorf("cluster: backend %d job %s ended %s: %s", b.idx, st.ID, st.State, st.Error)
	}
	if b.bytesRouted != nil {
		b.bytesRouted.Add(int64(len(keys) * 8))
	}
	return st.ID, nil
}

// trackedBody counts itself open in a WaitGroup until its first Close.
type trackedBody struct {
	io.ReadCloser
	once sync.Once
	open *sync.WaitGroup
}

func trackBody(rc io.ReadCloser, open *sync.WaitGroup) io.ReadCloser {
	open.Add(1)
	return &trackedBody{ReadCloser: rc, open: open}
}

func (t *trackedBody) Close() error {
	err := t.ReadCloser.Close()
	t.once.Do(t.open.Done)
	return err
}

// faultBody threads the injected stream-sever decision through a
// response body: each Read consults FailStream before touching the
// network, so a chaos spec can cut the stream at a deterministic read.
type faultBody struct {
	r      io.ReadCloser
	idx    int
	faults ConnFaults
}

func (f *faultBody) Read(p []byte) (int, error) {
	if f.faults != nil && f.faults.FailStream(f.idx) {
		return 0, errInjectedStream
	}
	return f.r.Read(p)
}

func (f *faultBody) Close() error { return f.r.Close() }

// openStream starts the binary result download for a remote job and
// returns the decoding reader. The caller owns closing the body.
func (b *backend) openStream(ctx context.Context, remoteID string) (*wire.Reader, io.Closer, error) {
	if b.faults != nil && b.faults.FailDial(b.idx) {
		b.markDown()
		return nil, nil, &dialError{backend: b.idx, err: errInjectedDial}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+edge.ResultPath(remoteID), nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := b.client.Do(req)
	if err != nil {
		b.markDown()
		return nil, nil, &dialError{backend: b.idx, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		// Gone/NotFound mean the remote result no longer exists (consumed,
		// evicted, or the node restarted): recoverable only by re-running
		// the partition, which is exactly what a dialError triggers.
		return nil, nil, &dialError{backend: b.idx, err: fmt.Errorf("result HTTP %d: %s", resp.StatusCode, raw)}
	}
	body := io.ReadCloser(&faultBody{r: resp.Body, idx: b.idx, faults: b.faults})
	fr, err := wire.NewReader(body)
	if err != nil {
		body.Close()
		b.markDown()
		return nil, nil, &dialError{backend: b.idx, err: err}
	}
	return fr, body, nil
}

// cancelRemote best-effort cancels a remote job (job teardown on the
// coordinator's cancel path); errors are ignored — the backend's own
// retention will reap it.
func (b *backend) cancelRemote(remoteID string) {
	req, err := http.NewRequest(http.MethodDelete, b.base+edge.JobPath(remoteID), nil)
	if err != nil {
		return
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return
	}
	resp.Body.Close()
}

var (
	errInjectedDial   = fmt.Errorf("cluster: injected dial failure")
	errInjectedStream = fmt.Errorf("cluster: injected stream sever")
)
