package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"knlmlm/internal/mem"
	"knlmlm/internal/psort"
)

// The result merge is psort.WindowMerge — the engine the single node's
// spill merge runs — over a third kind of block source: partition
// downloads play the run files, the network plays the disk, and the
// merged stream goes straight to the caller without ever materializing.
// Partitions are range-disjoint and ordered, so the k-way merge over a
// sliding window of streams degenerates to ordered concatenation with
// prefetch. Within the window it still merges by value, so partitions
// that overlap their neighbours cost balance, not correctness; streams
// beyond the window are not consulted, so an overlap wider than the
// window (a partitioner bug) would come out of order — the merge checks
// every emitted block against the previous one and fails the stream
// instead.
//
// The window — how many backend streams download concurrently — is two:
// one stream draining into the merge while the next prefetches. The
// partitions are range-ordered, so the merge consumes them one at a
// time.
//
// Fault tolerance: a stream that dies mid-download (backend SIGKILL,
// severed connection, evicted remote result) is recovered by
// re-submitting that partition's retained keys to a surviving backend
// and skipping the elements already handed to the merge — sound because
// re-sorting the same multiset is deterministic, so the retried stream
// is byte-identical to the lost one.

// ErrResultConsumed mirrors the single node's consume-once contract: the
// merged stream releases each partition's retained keys as it completes,
// so it can only be taken once.
var ErrResultConsumed = errors.New("cluster: result already consumed")

// ErrNotReady reports a result request for a job that is not Done.
var ErrNotReady = errors.New("cluster: job not done")

// readAheadWidth is the merge's concurrent-download window over parts
// streams: one draining, one prefetching.
func readAheadWidth(parts int) int { return min(2, parts) }

// partStream is the merge-side handle on one partition's download: a
// channel of decoded batches fed by a fill goroutine, with the terminal
// error (nil on success) readable after the channel closes.
type partStream struct {
	p   *part
	ch  chan []int64
	err error
	// pool takes back each batch once the merge asks for the next one
	// (nil drops them), so a stream keeps at most three in circulation:
	// one merging, one queued, one filling.
	pool *mem.SlicePool
	prev []int64
	// stall is the time the merge spent blocked on this stream with
	// nothing mergeable — the tier's pipeline bubble.
	stall time.Duration
}

// Next hands the merge the stream's next downloaded batch, recycling
// the one before it: WindowMerge is done with a block when it asks its
// source for the next.
func (s *partStream) Next(ctx context.Context) ([]int64, error) {
	s.pool.Put(s.prev)
	s.prev = nil
	t0 := time.Now()
	defer func() { s.stall += time.Since(t0) }()
	select {
	case batch, ok := <-s.ch:
		if ok {
			s.prev = batch
			return batch, nil
		}
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// StreamResult merges the job's sorted partitions into emit, in order,
// batch by batch. It is consume-once; the emitted element count is
// returned. Cancelling ctx aborts the downloads and the merge. A result
// delivered in full returns the job's buffer to the key pool: the merge
// has returned, every fill has exited and every upload body is closed,
// so nothing can read it again. Any other end leaves it to the GC.
func (j *Job) StreamResult(ctx context.Context, emit func([]int64) error) (int64, error) {
	j.mu.Lock()
	switch {
	case j.state == stateRunning:
		j.mu.Unlock()
		return 0, ErrNotReady
	case j.state == stateFailed:
		err := j.err
		j.mu.Unlock()
		return 0, err
	case j.consumed:
		j.mu.Unlock()
		return 0, ErrResultConsumed
	}
	j.consumed = true
	parts := j.parts
	j.mu.Unlock()

	c := j.coord
	var streams []*partStream
	for _, p := range parts {
		if len(p.keys) > 0 {
			streams = append(streams, &partStream{p: p, ch: make(chan []int64, 1), pool: c.keyPool})
		}
	}
	if len(streams) == 0 {
		return 0, nil
	}

	n, stall, err := mergeStreams(ctx, streams, readAheadWidth(len(streams)), c.cfg.MergeThreads,
		func(ctx context.Context, s *partStream) error { return c.fillPart(ctx, j, s) },
		func(block []int64) error {
			if err := emit(block); err != nil {
				return err
			}
			c.m.mergeBytes.Add(int64(len(block)) * 8)
			return nil
		})
	c.m.mergeStall.Add(stall.Seconds())
	if err != nil {
		return n, err
	}
	if want := totalLive(streams); n != int64(want) {
		return n, fmt.Errorf("cluster: merge delivered %d of %d elements", n, want)
	}
	c.keyPool.Put(j.release())
	return n, nil
}

// mergeStreams downloads the streams through an ordered sliding window —
// fill delivers one stream's batches into its channel, and stream i
// starts once stream i-width has fully delivered, so at most width
// downloads are in flight and they are always the next ranges the merge
// needs — and merges them into emit with the same window. It returns the
// element count emitted and the time the merge stalled on downloads; on
// failure every fill goroutine has exited by the time it returns.
func mergeStreams(ctx context.Context, streams []*partStream, width, threads int, fill func(context.Context, *partStream) error, emit func([]int64) error) (int64, time.Duration, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	srcs := make([]psort.BlockSource, len(streams))
	fillDone := make([]chan struct{}, len(streams))
	for i, s := range streams {
		srcs[i] = s
		fillDone[i] = make(chan struct{})
	}
	for i, s := range streams {
		go func() {
			defer close(fillDone[i])
			defer close(s.ch)
			if i >= width {
				select {
				case <-fillDone[i-width]:
				case <-sctx.Done():
					s.err = sctx.Err()
					return
				}
			}
			s.err = fill(sctx, s)
		}()
	}
	n, err := psort.WindowMerge(sctx, srcs, 1, width, threads, nil, emit)
	if err != nil {
		cancel()
		for _, ch := range fillDone {
			<-ch
		}
	}
	var stall time.Duration
	for _, s := range streams {
		stall += s.stall
	}
	return n, stall, err
}

func totalLive(streams []*partStream) int {
	n := 0
	for _, s := range streams {
		n += int(s.p.sentTotal())
	}
	return n
}

func (p *part) sentTotal() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// fillPart drives one partition's download to completion, re-running the
// partition on a surviving backend when its stream dies. Batches go to
// s.ch; on return the partition is delivered (nil) or failed (error).
func (c *Coordinator) fillPart(ctx context.Context, j *Job, s *partStream) error {
	p := s.p
	for {
		err := c.streamOnce(ctx, s)
		if err == nil {
			p.mu.Lock()
			p.state = partDelivered
			p.keys = nil // delivered in full; no retry can need them again
			p.mu.Unlock()
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var de *dialError
		if !errors.As(err, &de) {
			p.setState(partFailed)
			return err
		}
		p.mu.Lock()
		p.retries++
		from := p.backend.idx
		exhausted := p.retries > maxRetries
		p.mu.Unlock()
		if exhausted {
			p.setState(partFailed)
			return fmt.Errorf("cluster: partition %d exhausted retries mid-stream: %w", p.idx, err)
		}
		c.m.retries.Add(1)
		next := c.pickBackend(from)
		c.logger.Warn("cluster partition stream failover", "job", j.id, "part", p.idx,
			"from", from, "to", next.idx, "sent", p.sentTotal(), "err", err)
		p.mu.Lock()
		p.backend = next
		p.remoteID = ""
		p.mu.Unlock()
		// Re-run the lost partition remotely (submitPart has its own
		// backpressure ladder); the next streamOnce skips what was sent.
		if serr := c.submitPart(ctx, j, p); serr != nil {
			p.setState(partFailed)
			return serr
		}
	}
}

// streamOnce opens the partition's current remote result and forwards
// decoded batches, skipping the prefix a previous attempt already
// delivered. Transport-level failures come back as *dialError
// (retryable); anything structural (a remote result of the wrong size)
// is terminal.
func (c *Coordinator) streamOnce(ctx context.Context, s *partStream) error {
	p := s.p
	p.mu.Lock()
	b, id, skip, want := p.backend, p.remoteID, p.sent, int64(len(p.keys))
	p.state = partStreaming
	p.mu.Unlock()
	if id == "" {
		return &dialError{backend: b.idx, err: errors.New("partition has no remote job")}
	}
	fr, closer, err := b.openStream(ctx, id)
	if err != nil {
		return err
	}
	defer closer.Close()
	if fr.Total() != want {
		return fmt.Errorf("cluster: backend %d returned %d elements for a %d-element partition", b.idx, fr.Total(), want)
	}
	var scratch []int64
	for skip > 0 {
		if scratch == nil {
			scratch = make([]int64, mergeBlockElems)
		}
		n := int64(len(scratch))
		if n > skip {
			n = skip
		}
		got, err := fr.ReadBatch(scratch[:n])
		if err != nil {
			b.markDown()
			return &dialError{backend: b.idx, err: err}
		}
		skip -= int64(got)
	}
	for {
		buf := c.keyPool.Get(mergeBlockElems)
		n, err := fr.ReadBatch(buf)
		if n == 0 {
			c.keyPool.Put(buf)
		} else {
			select {
			case s.ch <- buf[:n]:
				p.mu.Lock()
				p.sent += int64(n)
				p.mu.Unlock()
			case <-ctx.Done():
				c.keyPool.Put(buf)
				return ctx.Err()
			}
		}
		if err == io.EOF {
			if ferr := fr.Finish(); ferr != nil {
				b.markDown()
				return &dialError{backend: b.idx, err: ferr}
			}
			return nil
		}
		if err != nil {
			b.markDown()
			return &dialError{backend: b.idx, err: err}
		}
	}
}
