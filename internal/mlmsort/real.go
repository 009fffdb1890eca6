package mlmsort

import (
	"cmp"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/model"
	"knlmlm/internal/psort"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/tune"
	"knlmlm/internal/units"
)

// RunReal executes the algorithm's actual data flow over xs, sorting it in
// place. threads is the worker count (use a small number on small hosts —
// the algorithms' structure, not their host speed, is what this layer
// verifies). megachunkLen is the MLM megachunk size in elements; zero
// selects the whole array for MLM-implicit (the paper's configuration) and
// a quarter of the array for MLM-ddr, MLM-sort, MLM-hybrid and the basic
// chunked sort, so that the multi-megachunk code path executes.
//
// The five variants differ in *data flow*, which is exactly what they do on
// real KNL hardware; memory-mode differences (where buffers live) have no
// observable effect on a host without MCDRAM and are simulated by the
// timing layer instead.
func RunReal(a Algorithm, xs []int64, threads, megachunkLen int) error {
	return RunRealObserved(a, xs, threads, megachunkLen, nil)
}

// RunRealObserved is RunReal with telemetry: when rec is non-nil, every
// megachunk's copy-in / compute / copy-out (and the final cross-megachunk
// merge) is recorded as a span, so the run can be exported as a Chrome
// trace and analyzed for copy↔compute overlap. A nil rec records nothing
// and adds no timestamps.
func RunRealObserved(a Algorithm, xs []int64, threads, megachunkLen int, rec *telemetry.Recorder) error {
	var opts RealOptions
	if rec != nil {
		opts.Observer = rec // never a nil *Recorder inside a non-nil interface
	}
	_, err := RunRealResilient(context.Background(), a, xs, threads, megachunkLen, opts)
	return err
}

// runRealResilient dispatches a resilient real run by algorithm.
func runRealResilient(ctx context.Context, a Algorithm, xs []int64, threads, megachunkLen int, opts RealOptions) (RealStats, error) {
	if threads < 1 {
		return RealStats{}, fmt.Errorf("mlmsort: threads %d must be positive", threads)
	}
	n := len(xs)
	if err := opts.Elem.validateBuffer(n); err != nil {
		return RealStats{}, err
	}
	if n < 2*opts.Elem.cells() {
		return RealStats{}, ctx.Err()
	}
	if opts.Elem == ElemKV {
		switch a {
		case MLMDDr, MLMSort, MLMImplicit, MLMHybrid:
		default:
			return RealStats{}, fmt.Errorf("mlmsort: %v has no record data flow (ElemKV needs an MLM variant)", a)
		}
	}
	switch a {
	case GNUFlat, GNUCache, GNUPreferred:
		// GNU parallel sort: p local sorts + one parallel multiway merge.
		// The three variants differ only in memory placement, which has no
		// observable effect on the data flow. Telemetry sees it as one
		// whole-array compute span.
		if err := ctx.Err(); err != nil {
			return RealStats{}, err
		}
		done := spanStart(opts.Observer)
		psort.Parallel(xs, threads)
		done(exec.StageCompute, wholeArray, touchedBytes(n))
		return RealStats{}, ctx.Err()
	case MLMDDr, MLMSort, MLMImplicit, MLMHybrid:
		return runRealMLM(ctx, a, xs, threads, megachunkLen, opts)
	case BasicChunked:
		return runRealBasic(ctx, xs, threads, megachunkLen, opts)
	default:
		return RealStats{}, fmt.Errorf("mlmsort: unknown algorithm %v", a)
	}
}

// wholeArray is the chunk index recorded for work that spans the full
// array (the final multiway merge, the GNU sorts).
const wholeArray = -1

// touchedBytes charges a compute span the read+write sweep convention.
func touchedBytes(elems int) int64 { return int64(elems) * 16 }

// spanStart begins a telemetry span and returns its closer. With a nil
// observer it returns a no-op and takes no timestamp, so unobserved runs
// pay nothing.
func spanStart(obs exec.Observer) func(stage exec.Stage, chunk int, bytes int64) {
	if obs == nil {
		return func(exec.Stage, int, int64) {}
	}
	t0 := time.Now()
	return func(stage exec.Stage, chunk int, bytes int64) {
		obs.StageEvent(exec.StageEvent{Stage: stage, Chunk: chunk, Start: t0, End: time.Now(), Bytes: bytes})
	}
}

// megachunks cuts xs into megachunks of the given length.
func megachunks(xs []int64, mcLen int) [][]int64 {
	n := len(xs)
	if mcLen <= 0 || mcLen > n {
		mcLen = n
	}
	var out [][]int64
	for lo := 0; lo < n; lo += mcLen {
		out = append(out, xs[lo:min(lo+mcLen, n)])
	}
	return out
}

// megachunkSorter sorts megachunks with a tunable worker width (the
// autotuner's compute-pool knob). Blocks are sorted with the adaptive
// kernel (or the record radix under ElemKV) through psort.SortBlock: one
// worker runs the radix core, whose last pass writes the run buffer when
// there is one, and two or more split the megachunk on its top digit,
// scatter it between them and finish disjoint bucket ranges, so no
// megachunk is merged. The split's tables are reused from a freelist in
// psort, so a multi-megachunk run allocates none per megachunk.
type megachunkSorter struct {
	width *atomic.Int32
	cells int
}

func newMegachunkSorter(threads int, elem ElemKind) *megachunkSorter {
	ms := &megachunkSorter{width: new(atomic.Int32), cells: elem.cells()}
	ms.width.Store(int32(threads))
	return ms
}

// workers is the width a megachunk of the given length is sorted at: the
// sorter's width, but no worker's share under tune.MinMegachunk cells,
// where the goroutines cost more than they share out.
func (ms *megachunkSorter) workers(cells int) int {
	return max(1, min(int(ms.width.Load()), cells/ms.cells, cells/tune.MinMegachunk))
}

// sort sorts one megachunk; scratch must be at least as long. With a nil
// dst the megachunk is sorted in place. Otherwise dst, as long as mc and
// aliasing neither buffer, receives the sorted megachunk and mc is left
// unspecified. Only the pipeline's single compute goroutine calls it, the
// discipline the shared scratch relies on.
func (ms *megachunkSorter) sort(mc, scratch, dst []int64) {
	psort.SortBlock(mc, scratch[:len(mc)], dst, ms.workers(len(mc)), ms.cells)
}

// finalMerge is phase 2 of the chunked algorithms: merge, the multiway
// merge of n cells across the sorted megachunks into the caller's array,
// recorded as one whole-array compute span.
func finalMerge(ctx context.Context, n int, obs exec.Observer, merge func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := spanStart(obs)
	merge()
	done(exec.StageCompute, wholeArray, touchedBytes(n))
	return ctx.Err()
}

// runRealMLM sorts xs's megachunks (phase 1) and merges them (phase 2).
// Two or more megachunks draw one run buffer t of len(xs): each
// megachunk's sort writes its sorted run into t, as the paper's writes
// the megachunk back to DDR, and the final merge reads t and writes xs,
// ping-ponging its rounds through t, so no key is copied back. t aliases
// no home, so staged and in-place megachunks alike land in it. It is
// merge space, DDR-side, so it comes from the shared pool and not from
// opts.Pool, and goes back to it when the run returns, like the
// pipeline's scratch. One megachunk draws no t.
func runRealMLM(ctx context.Context, a Algorithm, xs []int64, threads, megachunkLen int, opts RealOptions) (RealStats, error) {
	if megachunkLen <= 0 && a == MLMImplicit {
		megachunkLen = len(xs) // the paper: megachunk size equal to problem size
	}
	mcLen := megachunkCells(xs, megachunkLen, opts.Elem)
	homes := megachunks(xs, mcLen)
	if len(homes) < 2 {
		stats, err := SortHomes(ctx, a, homes, threads, opts, nil, nil)
		return stats, cmp.Or(err, ctx.Err())
	}
	t := mem.Pool.Get(len(xs))
	// Phase 1 and the final merge both join their workers before they
	// return, so t is idle when this Put runs, whatever the outcome.
	defer mem.Pool.Put(t)
	runs := megachunks(t, mcLen)
	stats, err := SortHomes(ctx, a, homes, threads, opts, runs, nil)
	if err != nil {
		return stats, err
	}
	// Phase 2: final multiway merge across megachunks.
	return stats, finalMerge(ctx, len(xs), opts.Observer, func() {
		psort.MergeRounds(xs, t, runs, threads, opts.Elem.cells())
	})
}

// megachunkCells resolves a run's megachunk length in cells: a
// non-positive megachunkLen selects a quarter of the array, so the
// multi-megachunk path executes, and megachunks (and therefore run files)
// hold whole records.
func megachunkCells(xs []int64, megachunkLen int, elem ElemKind) int {
	if megachunkLen <= 0 {
		megachunkLen = (len(xs) + 3) / 4
	}
	return elem.alignChunk(megachunkLen)
}

// staged reports whether the algorithm's real data flow copies each
// megachunk into a staging buffer to sort it (MLM-sort and its hybrid-mode
// twin, one flow on a host without MCDRAM); every other variant sorts
// megachunks where they lie.
func (a Algorithm) staged() bool { return a == MLMSort || a == MLMHybrid }

// SortHomes is phase 1 of every megachunked sort, in memory or spilled: it
// sorts each home on the exec pipeline, so megachunks inherit its full
// failure semantics (retries, panic recovery, cancellation). MLM-sort (and
// its hybrid twin) stages each megachunk through a buffer from opts.Pool
// (the flat-mode MCDRAM analog; a budget pool's refusal allocates that
// buffer unpooled, in DDR, and the megachunk is still staged). The other
// variants sort in place throughout.
// threads must be positive and every home hold whole elements of
// opts.Elem.
//
// Where a sorted megachunk goes is the only thing the callers vary. With
// into non-nil, megachunk i's sort writes into[i] (as long as homes[i],
// aliasing no home) wherever the megachunk was sorted, and a staged
// flow's copy-out stage is left only handing its buffer back. A non-nil
// writeRun is the copy-out instead: it receives megachunk i sorted,
// wherever it was sorted. Either way the homes are left unspecified.
// With neither, staged megachunks are written back to their homes.
func SortHomes(ctx context.Context, a Algorithm, homes [][]int64, threads int, opts RealOptions, into [][]int64, writeRun func(i int, sorted []int64) error) (RealStats, error) {
	maxLen, cells := 0, 0
	for _, h := range homes {
		maxLen = max(maxLen, len(h))
		cells += len(h)
	}
	// A budget-capped pool refusing the scratch degrades to an unpooled
	// (DDR) allocation.
	pool := opts.pool()
	scratch := pool.GetOrAlloc(maxLen)
	stats := RealStats{Megachunks: len(homes)}
	sorter := newMegachunkSorter(cmp.Or(opts.SortWorkers, threads), opts.Elem)
	copyW := new(atomic.Int32)
	copyW.Store(1) // the paper's baseline: one copy thread each way

	s := exec.Stages{
		NumChunks: len(homes),
		ChunkLen:  func(i int) int { return len(homes[i]) },
	}
	staged := a.staged()
	if staged {
		s.CopyIn = func(i int, dst []int64) error {
			// copy-in: DDR -> "MCDRAM", at the tunable copy-pool width
			exec.CopyParallel(dst, homes[i], int(copyW.Load()))
			return nil
		}
	}
	s.Compute = func(i int, buf []int64) error {
		if !staged {
			buf = homes[i]
		}
		var dst []int64
		if into != nil {
			dst = into[i] // the megachunk sort is the write-back
		}
		sorter.sort(buf, scratch, dst)
		return nil
	}
	if staged || writeRun != nil {
		// Unstaged, the megachunk was sorted where it lives and the
		// copy-out streams it from there: exec hands it no buffer.
		s.CopyOut = func(i int, src []int64) error {
			switch {
			case writeRun != nil:
				if !staged {
					src = homes[i]
				}
				return writeRun(i, src)
			case into == nil:
				// megachunk write-back to DDR
				exec.CopyParallel(homes[i], src, int(copyW.Load()))
			}
			return nil
		}
	}
	fs := telemetry.FinishStages(s, opts.Policy, opts.Resilience, opts.Observer, pool)
	var tuner *tune.PipelineTuner
	if at := opts.Autotune; at != nil && staged {
		total := at.TotalThreads
		if total <= 0 {
			total = threads + 2 // the run's current split: 1+1 copy, threads compute
		}
		tuner = tune.NewPipelineTuner(tune.Config{
			Initial:      model.Pools{In: int(copyW.Load()), Out: int(copyW.Load()), Comp: int(sorter.width.Load())},
			TotalThreads: total,
			Bytes:        units.BytesForElements(int64(cells)),
			Registry:     at.Registry,
			Next:         fs.Observer,
			OnProvision: func(p model.Prediction) {
				if p.Pools.In > 0 {
					copyW.Store(int32(p.Pools.In))
				}
				if p.Pools.Comp > 0 {
					sorter.width.Store(int32(p.Pools.Comp))
				}
			},
		})
		fs.Observer = tuner
	}
	err := exec.RunContext(ctx, fs, opts.buffers())
	if tuner != nil {
		if dec, ok := tuner.Decision(); ok {
			stats.Retunes = 1
			stats.TunedPools = dec.Pools
		}
	}
	pool.Put(scratch)
	return stats, err
}

// runRealBasic is Bender et al.'s basic algorithm: each megachunk is sorted
// with the *parallel* sort, then the megachunks are merged in pairwise
// rounds (psort.MergeRounds, as in runRealMLM) into a buffer from the
// shared pool (merge space) and copied back.
func runRealBasic(ctx context.Context, xs []int64, threads, megachunkLen int, opts RealOptions) (RealStats, error) {
	runs := megachunks(xs, megachunkCells(xs, megachunkLen, ElemInt64))
	stats := RealStats{Megachunks: len(runs)}
	s := exec.Stages{
		NumChunks: len(runs),
		ChunkLen:  func(i int) int { return len(runs[i]) },
		Compute: func(i int, _ []int64) error {
			psort.Parallel(runs[i], threads)
			return nil
		},
	}
	s = telemetry.FinishStages(s, opts.Policy, opts.Resilience, opts.Observer, opts.pool())
	if err := exec.RunContext(ctx, s, opts.buffers()); err != nil || len(runs) < 2 {
		return stats, cmp.Or(err, ctx.Err())
	}
	// The merge joins its workers before returning, so the buffer is idle
	// again by the Put.
	final := mem.Pool.Get(len(xs))
	defer mem.Pool.Put(final)
	return stats, finalMerge(ctx, len(xs), opts.Observer, func() {
		psort.MergeRounds(final, xs, runs, threads, 1)
		copy(xs, final)
	})
}
