// Package cluster is the distributed tier of the sort service: a
// coordinator that fronts N mlmserve backends and presents the same
// submit/status/result API a single node does, at the aggregate
// bandwidth of the fleet.
//
// A job moves through three phases:
//
//   - Partition: the coordinator samples the keys, reads splitters off
//     the sample's weighted quantiles, and scatters the keys into
//     disjoint ranges sized to each backend's polled capacity (see
//     router.go — weights come from the paper's Eq. 1-5 model solved
//     with each node's own published rates, degraded by brownout and queue
//     depth).
//   - Scatter: each partition is uploaded as one binary wire-format job
//     (Expect: 100-continue, X-Deadline-Ms) and sorted remotely; the
//     coordinator holds the wait=1 response until the remote sort is
//     terminal.
//   - Gather: the result download concatenates the per-partition wire
//     downloads, in range order, straight onto the client's socket, with
//     the next partition prefetching while one drains. The ranges are
//     disjoint, so nothing is merged (merge.go).
//
// Fault tolerance is per partition, not per job: every partition is a
// small state machine (assigned -> sorted -> streaming -> delivered)
// whose keys the coordinator retains until delivery. A backend that dies
// mid-sort or mid-stream fails only the partitions it held; each is
// re-submitted to a surviving backend and, when it was already mid-
// stream, the retry skips the elements the client already has — sound
// because re-sorting the same keys is deterministic. Backpressure (429,
// shed) is handled separately with bounded waits: an overloaded backend
// is alive, and failing over a whole partition because of a full queue
// would amplify the overload.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knlmlm/internal/edge"
	"knlmlm/internal/mem"
	"knlmlm/internal/telemetry"
)

// ConnFaults injects connection-level failures for chaos testing;
// *fault.Injector satisfies it. FailDial is consulted before each
// request to a backend, FailStream before each read of a response
// stream.
type ConnFaults interface {
	FailDial(backend int) bool
	FailStream(backend int) bool
}

const (
	// sampleRate is the fraction of a job's keys sampled for splitter
	// selection; the sample is floored at 8 keys per partition regardless.
	sampleRate = 0.01
	// partsPerBackend is how many range partitions each backend receives
	// per job. More partitions smooth the retry granularity (a dead
	// backend loses smaller pieces) at the cost of per-partition HTTP
	// overhead.
	partsPerBackend = 2
	// skewLimit triggers a one-shot splitter resample when the worst
	// partition exceeds this multiple of its weighted target.
	skewLimit = 2.5
	// mergeBlockElems is the merge emission granularity: 256 KiB blocks,
	// matching the wire frame default.
	mergeBlockElems = 32768
	// maxRetries bounds failure-driven re-runs per partition (backend
	// death, severed streams).
	maxRetries = 4
	// maxBackoffs bounds backpressure waits per partition submit (429,
	// shed). Backpressure resolves with time, so the budget is generous
	// where the failure budget is tight.
	maxBackoffs = 32
)

// Config describes a Coordinator.
type Config struct {
	// Backends are the mlmserve base URLs (http://host:port). Required.
	Backends []string
	// Registry receives the cluster_* metric families; nil selects a
	// private registry.
	Registry *telemetry.Registry
	// PollInterval is the capacity poll cadence. Zero selects 500ms.
	PollInterval time.Duration
	// RetainJobs bounds terminal jobs kept for status lookup. Zero
	// selects 64.
	RetainJobs int
	// ConnFaults, when non-nil, injects dial/stream failures (chaos).
	ConnFaults ConnFaults
	// Logger, when non-nil, receives job lifecycle events.
	Logger *slog.Logger
	// Seed makes splitter sampling deterministic across runs. Zero is a
	// valid seed.
	Seed int64
}

// Coordinator routes sort jobs across the backend fleet.
type Coordinator struct {
	cfg        Config
	reg        *telemetry.Registry
	m          *metrics
	backends   []*backend
	client     *http.Client
	pollClient *http.Client
	logger     *slog.Logger
	// keyPool recycles the job path's key buffers: submit bodies, the
	// job buffer the partitions share, and download batches.
	keyPool *mem.SlicePool

	seq      atomic.Int64
	probeSeq atomic.Int64
	draining atomic.Bool

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string

	stop     chan struct{}
	stopOnce sync.Once
	pollWG   sync.WaitGroup
}

// New builds a Coordinator and starts its capacity poller. Close stops
// the poller; in-flight jobs are owned by their submitters' contexts.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: at least one backend is required")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 64
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	// Backend traffic: Expect-Continue support and no overall timeout.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.ExpectContinueTimeout = time.Second
	tr.MaxIdleConnsPerHost = 16
	client := &http.Client{Transport: tr}
	c := &Coordinator{
		cfg:        cfg,
		reg:        reg,
		m:          newMetrics(reg, len(cfg.Backends)),
		client:     client,
		pollClient: &http.Client{Transport: tr, Timeout: 2 * time.Second},
		logger:     cfg.Logger,
		keyPool:    mem.NewSlicePool(),
		jobs:       map[string]*Job{},
		stop:       make(chan struct{}),
	}
	if c.logger == nil {
		c.logger = telemetry.NopLogger()
	}
	for i, base := range cfg.Backends {
		c.backends = append(c.backends, &backend{
			idx:         i,
			base:        base,
			client:      client,
			faults:      cfg.ConnFaults,
			bytesRouted: c.m.bytesRouted[i],
			upGauge:     c.m.backendUp[i],
		})
	}
	c.pollAll()
	c.pollWG.Add(1)
	go c.pollLoop()
	return c, nil
}

func (c *Coordinator) pollLoop() {
	defer c.pollWG.Done()
	t := time.NewTicker(c.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.pollAll()
		}
	}
}

// Close stops the capacity poller. It does not cancel in-flight jobs.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.pollWG.Wait()
}

// Registry exposes the coordinator's metric registry (for /metrics).
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// Job states, in the node's vocabulary.
const (
	stateRunning = "running"
	stateDone    = edge.StateDone
	stateFailed  = "failed"
)

// partState is one partition's position in its lifecycle.
type partState int32

const (
	partAssigned partState = iota
	partSorted
	partStreaming
	partDelivered
	partFailed
)

func (s partState) String() string {
	switch s {
	case partAssigned:
		return "assigned"
	case partSorted:
		return "sorted"
	case partStreaming:
		return "streaming"
	case partDelivered:
		return "delivered"
	default:
		return "failed"
	}
}

// part is one range partition's state machine. Its keys are retained —
// and re-submittable — until the partition's bytes have been delivered
// into the gathered result stream.
type part struct {
	idx  int
	keys []int64

	mu       sync.Mutex
	state    partState
	backend  *backend
	remoteID string
	retries  int
	sent     int64 // elements already delivered into the gather
}

func (p *part) setState(s partState) {
	p.mu.Lock()
	p.state = s
	p.mu.Unlock()
}

// Job is one cluster sort.
type Job struct {
	id    string
	coord *Coordinator
	n     int
	opts  edge.SortRequest // the options every partition submit carries; Keys is nil

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	state string
	err   error
	parts []*part
	// buf is the buffer every partition's keys slice. It goes back to
	// the key pool once the result is delivered in full, and to the GC
	// on every other end.
	buf       []int64
	skew      float64
	resampled bool
	consumed  bool
	enq       time.Time
	started   time.Time
	fin       time.Time
}

// ID, N, State, Err, Skew: status accessors.
func (j *Job) ID() string { return j.id }
func (j *Job) N() int     { return j.n }

func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Skew reports the job's measured partition skew and whether the
// splitter sample was retaken.
func (j *Job) Skew() (float64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.skew, j.resampled
}

// Times reports enqueue/start/finish instants (zero when not reached).
func (j *Job) Times() (enq, started, fin time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enq, j.started, j.fin
}

// Retries sums failure-driven re-runs across the job's partitions.
func (j *Job) Retries() int {
	j.mu.Lock()
	parts := j.parts
	j.mu.Unlock()
	total := 0
	for _, p := range parts {
		p.mu.Lock()
		total += p.retries
		p.mu.Unlock()
	}
	return total
}

// Wait blocks until the job is terminal or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel aborts the job: scatter and gather stop, and every submitted
// remote partition job is best-effort cancelled.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	parts := j.parts
	j.mu.Unlock()
	for _, p := range parts {
		p.mu.Lock()
		b, id := p.backend, p.remoteID
		p.mu.Unlock()
		if b != nil && id != "" {
			go b.cancelRemote(id)
		}
	}
}

// Submit accepts a cluster sort job and starts its partition/scatter
// pipeline asynchronously; the returned Job tracks it. Submit takes
// req.Keys: a job of several partitions recycles the slice into the
// coordinator's key pool once it is scattered, and a one-partition job
// sorts from it, so the caller must not touch it again.
func (c *Coordinator) Submit(req edge.SortRequest) (*Job, error) {
	// The partitions hold the keys; the job holds only the options.
	keys := req.Keys
	req.Keys = nil
	if len(keys) == 0 {
		return nil, fmt.Errorf("cluster: keys must be non-empty")
	}
	if c.draining.Load() {
		return nil, errDraining
	}
	seq := c.seq.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:     fmt.Sprintf("c%08d", seq),
		coord:  c,
		n:      len(keys),
		opts:   req,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  stateRunning,
		enq:    time.Now(),
	}
	c.m.jobs.Add(1)
	c.retain(j)
	go c.run(j, keys, seq)
	return j, nil
}

var errDraining = errors.New("cluster: coordinator is draining")

// run executes the partition and scatter phases. The job turns Done when
// every partition is sorted on some backend; the gather happens at
// result download time, as the single node's spill merge does.
func (c *Coordinator) run(j *Job, keys []int64, seq int64) {
	j.mu.Lock()
	j.started = time.Now()
	j.mu.Unlock()

	weights := c.weights()
	nparts := len(c.backends) * partsPerBackend
	if nparts > len(keys) {
		nparts = len(keys)
	}
	// Partition p goes to backend p mod B, so each backend's share is
	// spread across the keyspace and its weight splits evenly over its
	// partitions.
	pw := make([]float64, nparts)
	for p := range pw {
		pw[p] = weights[p%len(c.backends)]
	}
	rng := rand.New(rand.NewSource(c.cfg.Seed ^ int64(uint64(seq)*0x9e3779b97f4a7c15)))
	pl := partition(keys, pw, sampleRate, skewLimit, rng, c.keyPool)
	if len(pl.parts) > 1 {
		c.keyPool.Put(keys) // scattered: the partitions hold their own copy
	}
	c.m.skew.Observe(pl.skew)
	if pl.resampled {
		c.m.resamples.Add(1)
	}

	parts := make([]*part, 0, len(pl.parts))
	for i, pk := range pl.parts {
		parts = append(parts, &part{idx: i, keys: pk, backend: c.backends[i%len(c.backends)]})
	}
	c.m.partitions.Add(int64(len(parts)))
	j.mu.Lock()
	j.parts = parts
	j.buf = pl.buf
	j.skew = pl.skew
	j.resampled = pl.resampled
	j.mu.Unlock()

	var wg sync.WaitGroup
	errs := make([]error, len(parts))
	for i, p := range parts {
		if len(p.keys) == 0 {
			p.setState(partSorted)
			continue
		}
		wg.Add(1)
		go func(i int, p *part) {
			defer wg.Done()
			errs[i] = c.submitPart(j.ctx, j, p)
		}(i, p)
	}
	wg.Wait()

	var failed error
	for _, e := range errs {
		if e != nil {
			failed = e
			break
		}
	}
	j.mu.Lock()
	j.fin = time.Now()
	if failed != nil {
		j.state = stateFailed
		j.err = failed
	} else {
		j.state = stateDone
	}
	j.mu.Unlock()
	if failed != nil {
		c.m.jobsFailed.Add(1)
		c.logger.Warn("cluster job failed", "job", j.id, "err", failed)
	} else {
		c.logger.Info("cluster job sorted", "job", j.id, "n", j.n,
			"parts", len(parts), "skew", fmt.Sprintf("%.2f", pl.skew), "retries", j.Retries())
	}
	close(j.done)
}

// submitPart drives one partition to the sorted state: upload, remote
// sort, and on failure the bounded retry ladder — backpressure waits on
// the same backend, hard failures fail over to the best surviving one.
// ctx is the phase that owns the submit: the scatter context at job
// admission, the download context for a mid-stream re-run.
func (c *Coordinator) submitPart(ctx context.Context, j *Job, p *part) error {
	backoffs := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.mu.Lock()
		b := p.backend
		p.mu.Unlock()
		id, err := b.submitSorted(ctx, p.keys, j.opts)
		if err == nil {
			p.mu.Lock()
			p.remoteID = id
			p.state = partSorted
			p.mu.Unlock()
			return nil
		}
		var bp *backpressureError
		if errors.As(err, &bp) {
			backoffs++
			c.m.backoffs.Add(1)
			if backoffs > maxBackoffs {
				return fmt.Errorf("cluster: partition %d exhausted backpressure budget: %w", p.idx, err)
			}
			select {
			case <-time.After(bp.retryAfter):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		p.mu.Lock()
		p.retries++
		exhausted := p.retries > maxRetries
		p.mu.Unlock()
		if exhausted {
			p.setState(partFailed)
			return fmt.Errorf("cluster: partition %d exhausted retries: %w", p.idx, err)
		}
		c.m.retries.Add(1)
		next := c.pickBackend(b.idx)
		c.logger.Warn("cluster partition failover", "job", j.id, "part", p.idx,
			"from", b.idx, "to", next.idx, "err", err)
		p.mu.Lock()
		p.backend = next
		p.remoteID = ""
		p.mu.Unlock()
	}
}

// retain remembers the job for status lookup, evicting the oldest
// terminal jobs past the retention bound (their partition keys go to
// the GC with them: a download may still be reading them).
func (c *Coordinator) retain(j *Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	for len(c.order) > c.cfg.RetainJobs {
		id := c.order[0]
		old := c.jobs[id]
		if old != nil {
			select {
			case <-old.done:
			default:
				return // oldest still running; retention waits
			}
		}
		c.order = c.order[1:]
		delete(c.jobs, id)
		if old != nil {
			old.release()
		}
	}
}

// release drops a job's retained partition keys and hands back the
// buffer they sliced, nil after the first call.
func (j *Job) release() []int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, p := range j.parts {
		p.mu.Lock()
		p.keys = nil
		p.mu.Unlock()
	}
	buf := j.buf
	j.buf = nil
	return buf
}

// Lookup finds a job by ID.
func (c *Coordinator) Lookup(id string) (*Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// Drain refuses new submissions and waits for in-flight jobs to turn
// terminal (or ctx to expire).
func (c *Coordinator) Drain(ctx context.Context) error {
	c.draining.Store(true)
	c.mu.Lock()
	jobs := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Draining reports whether Drain has been called.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// backendViews snapshots per-backend health for /healthz, in index
// order.
type backendView struct {
	Index    int           `json:"index"`
	Addr     string        `json:"addr"`
	Up       bool          `json:"up"`
	Weight   float64       `json:"weight"`
	Capacity edge.Capacity `json:"capacity"`
}

func (c *Coordinator) backendViews() []backendView {
	w := c.weights()
	var sum float64
	for _, x := range w {
		sum += x
	}
	out := make([]backendView, len(c.backends))
	for i, b := range c.backends {
		up, cap := b.snapshot()
		share := 0.0
		if sum > 0 {
			share = w[i] / sum
		}
		out[i] = backendView{Index: i, Addr: b.base, Up: up, Weight: share, Capacity: cap}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}
