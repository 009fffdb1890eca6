package mlmsort

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/psort"
	"knlmlm/internal/spill"
)

// ExternalOptions configures the three-level (MCDRAM -> DDR -> disk)
// out-of-core sort: SpillSorted, then MergeSpilled. It embeds
// RealOptions: everything the resilient in-memory path understands —
// staged heap placement, fault wrapping, retries, autotuning, pooling —
// applies unchanged to the spill pipeline's phase 1.
type ExternalOptions struct {
	RealOptions

	// Store is the run store sorted megachunks spill to and the merge
	// reads back. The caller owns it: SpillSorted needs one, and the
	// runs stay in it until the caller removes them or closes it.
	Store *spill.Store
	// MergeThreads is the worker count each merge round's loser-tree pass
	// may fan out to (psort.MergeRound: small rounds and values <= 1 keep
	// the serial merge).
	MergeThreads int

	// blockElems is the element count of each read-ahead block the final
	// merge streams run files through; zero selects 64Ki elements. Tests
	// set small and odd sizes.
	blockElems int
}

// mergeBlock resolves the read-ahead block size.
func (o ExternalOptions) mergeBlock() int {
	if o.blockElems > 0 {
		return o.blockElems
	}
	return 64 << 10
}

// SpillSorted is phase 1 of the out-of-core sort: it runs the same staged
// megachunk pipeline as the in-memory MLM variants, but the copy-out
// stage writes each sorted megachunk to a run file in opts.Store instead
// of back to DDR. It returns the run ids (one per megachunk, in key
// order of megachunk position). Run-file write faults fail the copy-out
// attempt and are retried under opts.Retry; a retried write re-creates
// the run, so half-written files never survive. Like RunRealResilient,
// it records its outcome to opts.Resilience.
//
// On error the caller owns cleanup of whatever runs were created —
// RemoveRun over the returned ids (a no-op for runs that never sealed).
func SpillSorted(ctx context.Context, a Algorithm, xs []int64, threads, megachunkLen int, opts ExternalOptions) (runs []int, stats RealStats, err error) {
	if opts.Resilience != nil {
		defer func() { opts.Resilience.RecordOutcome(err) }()
	}
	if threads < 1 {
		return nil, RealStats{}, fmt.Errorf("mlmsort: threads %d must be positive", threads)
	}
	if opts.Store == nil {
		return nil, RealStats{}, fmt.Errorf("mlmsort: SpillSorted needs a run store")
	}
	if err := opts.Elem.validateBuffer(len(xs)); err != nil {
		return nil, RealStats{}, err
	}
	if len(xs) == 0 {
		return nil, RealStats{}, ctx.Err()
	}
	// Record jobs spill fine under every algorithm here — the spill path
	// is megachunk-structured for all of them.
	homes := megachunks(xs, megachunkCells(xs, megachunkLen, opts.Elem))
	stats, err = SortHomes(ctx, a, homes, threads, opts.RealOptions, nil, func(i int, sorted []int64) error {
		w, err := opts.Store.CreateRun(i)
		if err != nil {
			return err
		}
		if err := w.Append(sorted); err != nil {
			_ = w.Close()
			return err
		}
		return w.Close()
	})
	runs = make([]int, len(homes))
	for i := range runs {
		runs[i] = i
	}
	return runs, stats, err
}

// spillBlock is one filled read-ahead block (or a terminal read error)
// traveling from a fill worker to the merge loop.
type spillBlock struct {
	data []int64
	err  error
}

// runSource is the merge's handle on one run file: the channel its fill
// worker stages blocks into, and the block the merge currently holds.
type runSource struct {
	ch   chan spillBlock
	cur  []int64
	pool *mem.SlicePool
}

// Next recycles the block the merge just finished and hands over the
// next staged one.
func (rs *runSource) Next(ctx context.Context) ([]int64, error) {
	rs.pool.Put(rs.cur)
	rs.cur = nil
	select {
	case b, ok := <-rs.ch:
		if !ok {
			return nil, io.EOF
		}
		rs.cur = b.data
		return b.data, b.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// MergeSpilled is phase 2: a k-way streaming merge over the given run
// files, emitting the globally sorted sequence to sink in batches. Disk
// copy-in overlaps merge compute exactly as the paper's pipeline overlaps
// MCDRAM staging with sorting: one fill goroutine per run streams blocks
// into a bounded channel (double buffering per run), with one fill in
// flight at a time — a copy pool of width one, with the disk as the slow
// tier. Blocks come from opts.Pool (falling back to the shared pool,
// degrading to unpooled allocation on budget refusal) and are recycled as
// the merge consumes them, so the merge's DDR footprint is
// O(runs x block), independent of the dataset. It deletes no run: the
// caller removes them, or closes the store, when the merge returns.
//
// The merge itself is psort.WindowMerge over all runs at once, each run
// file a block source; this function owns only what is specific to disk.
// Injected read faults are retried under opts.Retry with the same capped
// backoff internal/exec applies to stage attempts. On any exit — success,
// read failure, sink error, cancellation — all fill goroutines are joined
// and all pooled blocks are returned; MergeSpilled never leaks.
//
// Under opts.Elem == ElemKV the run files hold interleaved key/payload
// cells: the read-ahead block is rounded to an even cell count so fills
// never split a record (runs themselves are even by SpillSorted's
// alignment) and the merge runs two cells wide. Sink batches stay
// []int64 cells either way.
func MergeSpilled(ctx context.Context, store *spill.Store, runs []int, opts ExternalOptions, sink func([]int64) error) (int64, error) {
	if sink == nil {
		return 0, fmt.Errorf("mlmsort: MergeSpilled needs a sink")
	}
	if !opts.Elem.Valid() {
		return 0, fmt.Errorf("mlmsort: unknown element kind %v", opts.Elem)
	}
	if len(runs) == 0 {
		return 0, ctx.Err()
	}
	block := opts.Elem.alignChunk(opts.mergeBlock())
	pool := opts.pool()

	mctx, cancel := context.WithCancel(ctx)
	// One fill worker per run, one of them on the disk at a time.
	fillSlots := make(chan struct{}, 1)
	sources := make([]*runSource, 0, len(runs))
	srcs := make([]psort.BlockSource, 0, len(runs))
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		for _, rs := range sources {
			pool.Put(rs.cur)
			for b := range rs.ch {
				pool.Put(b.data)
			}
		}
	}()
	for _, id := range runs {
		r, err := store.OpenRun(id)
		if err != nil {
			return 0, err
		}
		rs := &runSource{pool: pool, ch: make(chan spillBlock, 1)} // current block downstream + one staged here
		sources, srcs = append(sources, rs), append(srcs, rs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(rs.ch)
			defer r.Close()
			for {
				select {
				case fillSlots <- struct{}{}:
				case <-mctx.Done():
					return
				}
				buf := pool.GetOrAlloc(block)
				n, err := fillWithRetry(mctx, r, buf, id, opts)
				<-fillSlots
				if n > 0 {
					select {
					case rs.ch <- spillBlock{data: buf[:n]}:
					case <-mctx.Done():
						pool.Put(buf)
						return
					}
				} else {
					pool.Put(buf)
				}
				if err == io.EOF {
					return
				}
				if err != nil {
					select {
					case rs.ch <- spillBlock{err: err}:
					case <-mctx.Done():
					}
					return
				}
			}
		}()
	}
	return psort.WindowMerge(mctx, srcs, opts.Elem.cells(), opts.MergeThreads, pool, sink)
}

// fillWithRetry drives one read-ahead fill with the exec retry semantics:
// failed attempts back off under opts.Retry and each one is reported to
// opts.Resilience, with the exhausting attempt marked final.
func fillWithRetry(ctx context.Context, r *spill.RunReader, buf []int64, runID int, opts ExternalOptions) (int, error) {
	attempts := opts.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		n, err := r.Fill(buf)
		if err == nil || err == io.EOF {
			return n, err
		}
		retryable := attempt < attempts
		var backoff time.Duration
		if retryable {
			backoff = opts.Retry.Backoff(attempt)
		}
		if opts.Resilience != nil {
			opts.Resilience.ObserveRetry(exec.RetryEvent{
				Stage: exec.StageCopyIn, Chunk: runID, Attempt: attempt,
				Err: err, Backoff: backoff, Final: !retryable,
			})
		}
		if !retryable {
			return 0, &exec.ChunkError{Stage: exec.StageCopyIn, Chunk: runID, Attempts: attempt, Err: err}
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}
