package mlmsort

import (
	"context"
	"fmt"
	"sync"
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
// selects the whole array (MLM-implicit's configuration) for the MLM
// variants and a quarter of the array for the staged variants, so that the
// multi-megachunk code path executes.
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

// megachunkSorter sorts megachunks the MLM way — each worker sorts one
// maximal block, then a multiway merge through scratch — with a tunable
// worker width (the autotuner's compute-pool knob) and a reusable run
// table, so the steady state of a multi-megachunk run performs no
// per-megachunk allocation. Blocks are sorted with the adaptive kernel
// (or the record radix under ElemKV): each worker's disjoint segment of
// scratch doubles as its radix scratch.
type megachunkSorter struct {
	width *atomic.Int32
	cells int
	runs  [][]int64
}

func newMegachunkSorter(threads int, elem ElemKind) *megachunkSorter {
	ms := &megachunkSorter{width: new(atomic.Int32), cells: elem.cells()}
	ms.width.Store(int32(threads))
	return ms
}

// sort sorts one megachunk in place; scratch must be at least as long.
// Only the pipeline's single compute goroutine calls it, so the run table
// needs no lock (the same discipline the shared scratch relies on).
// Worker splits are in element units, so no record ever straddles a
// block. Record megachunks merge through the serial loser tree at cell
// width 2 (psort.MergeRound), which record jobs absorb because the staged
// pipeline overlaps it with the next megachunk's copy-in.
func (ms *megachunkSorter) sort(mc, scratch []int64) {
	m := len(mc) / ms.cells
	if m < 2 {
		return
	}
	scratch = scratch[:len(mc)]
	// No block is cut under tune.MinMegachunk cells: below it the
	// goroutines, the merge and the copy-back cost more than they share out.
	w := min(int(ms.width.Load()), m, len(mc)/tune.MinMegachunk)
	if w <= 1 {
		// Single-worker fast path: no goroutines, no merge, no run table.
		psort.SortBlock(mc, scratch, ms.cells)
		return
	}
	ms.runs = ms.runs[:0]
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo, hi := m*i/w*ms.cells, m*(i+1)/w*ms.cells
		ms.runs = append(ms.runs, mc[lo:hi])
		wg.Add(1)
		go func(block, blockScratch []int64) {
			defer wg.Done()
			psort.SortBlock(block, blockScratch, ms.cells)
		}(mc[lo:hi], scratch[lo:hi])
	}
	wg.Wait()
	psort.MergeRound(scratch, ms.runs, w, ms.cells)
	copy(mc, scratch)
}

// finalMerge is phase 2 of the chunked algorithms: the multiway merge
// across xs's sorted megachunks (runs), recorded as one whole-array
// compute span. Under ElemKV the runs are record-aligned by construction.
func finalMerge(ctx context.Context, xs []int64, runs [][]int64, threads int, obs exec.Observer, elem ElemKind) error {
	if len(runs) < 2 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The merge target comes from the shared pool rather than a per-run
	// make: the merge joins its workers before returning, so the buffer
	// is idle again by the Put.
	final := mem.Pool.Get(len(xs))
	done := spanStart(obs)
	psort.MergeRound(final, runs, threads, elem.cells())
	copy(xs, final)
	done(exec.StageCompute, wholeArray, touchedBytes(len(xs)))
	mem.Pool.Put(final)
	return ctx.Err()
}

func runRealMLM(ctx context.Context, a Algorithm, xs []int64, threads, megachunkLen int, opts RealOptions) (RealStats, error) {
	if megachunkLen <= 0 && a == MLMImplicit {
		megachunkLen = len(xs) // the paper: megachunk size equal to problem size
	}
	runs, stats, err := sortMegachunks(ctx, a, xs, threads, megachunkLen, opts, nil)
	if err != nil {
		return stats, err
	}
	// Phase 2: final multiway merge across megachunks.
	return stats, finalMerge(ctx, xs, runs, threads, opts.Observer, opts.Elem)
}

// sortMegachunks is phase 1 over one array: it cuts xs into megachunks (a
// non-positive megachunkLen selects a quarter of the array, so the
// multi-megachunk path executes), sorts them with SortHomes and returns
// them. With a nil writeRun xs is left a sequence of sorted runs, the
// returned megachunks; with a writeRun xs is left unspecified.
func sortMegachunks(ctx context.Context, a Algorithm, xs []int64, threads, megachunkLen int, opts RealOptions, writeRun func(i int, sorted []int64) error) ([][]int64, RealStats, error) {
	if megachunkLen <= 0 {
		megachunkLen = (len(xs) + 3) / 4
	}
	// Megachunks (and therefore run files) must hold whole records.
	homes := megachunks(xs, opts.Elem.alignChunk(megachunkLen))
	stats, err := SortHomes(ctx, a, homes, threads, opts, writeRun)
	return homes, stats, err
}

// Staged reports whether the algorithm's real data flow copies each
// megachunk through a staging buffer and back (MLM-sort and its hybrid-mode
// twin, one flow on a host without MCDRAM); every other variant sorts
// megachunks where they lie.
func (a Algorithm) Staged() bool { return a == MLMSort || a == MLMHybrid }

// SortHomes is phase 1 of every megachunked sort, in memory or spilled: it
// sorts each home on the exec pipeline, so megachunks inherit
// its full failure semantics (retries, panic recovery, deadlines,
// cancellation). MLM-sort (and its hybrid twin) stages each megachunk
// through a buffer (the flat-mode MCDRAM analog); when the staging
// allocation fails — simulated heap exhaustion or an injected fault —
// that megachunk degrades to the in-place DDR-direct flow. The other
// variants sort in place throughout. threads must be positive and every
// home hold whole elements of opts.Elem.
//
// Where a sorted megachunk goes is the only thing the callers vary. A nil
// writeRun writes staged megachunks back to their homes. A non-nil
// writeRun is the copy-out instead: it receives megachunk i sorted,
// wherever it was sorted, and the homes are left unspecified.
func SortHomes(ctx context.Context, a Algorithm, homes [][]int64, threads int, opts RealOptions, writeRun func(i int, sorted []int64) error) (RealStats, error) {
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
	sorter := newMegachunkSorter(threads, opts.Elem)
	copyW := new(atomic.Int32)
	copyW.Store(1) // the paper's baseline: one copy thread each way
	if opts.Widths != nil {
		// External width control: the run starts from the control's
		// current pools (defaulting any unset width) and both the copy
		// stages and the megachunk sorter read it live thereafter.
		copyW = &opts.Widths.copyIn
		sorter.width = &opts.Widths.comp
		if copyW.Load() <= 0 {
			copyW.Store(1)
		}
		if sorter.width.Load() <= 0 {
			sorter.width.Store(int32(threads))
		}
	}

	s := exec.Stages{
		NumChunks: len(homes),
		ChunkLen:  func(i int) int { return len(homes[i]) },
	}
	staged := a.Staged()
	var table *stagingTable
	inPlace := func(i int) bool { return table == nil || table.isDegraded(i) }
	if staged {
		table = newStagingTable(opts.Staging, len(homes))
		s.CopyIn = func(i int, dst []int64) error {
			if table.stage(i, units.BytesForElements(int64(len(homes[i]))), opts.Resilience) {
				// copy-in: DDR -> "MCDRAM", at the tunable copy-pool width
				exec.CopyParallel(dst, homes[i], int(copyW.Load()))
			}
			return nil // a failed staging leaves the megachunk in DDR
		}
	} else if writeRun != nil {
		// The megachunk is sorted where it lives and the copy-out streams
		// it from there; the staging buffer is untouched, so CopyIn (which
		// exec requires of any pipeline with a CopyOut) has nothing to move.
		s.CopyIn = func(int, []int64) error { return nil }
	}
	s.Compute = func(i int, buf []int64) error {
		if inPlace(i) {
			buf = homes[i]
		}
		sorter.sort(buf, scratch)
		return nil
	}
	if s.CopyIn != nil {
		s.CopyOut = func(i int, src []int64) error {
			moved := !inPlace(i)
			if !moved {
				src = homes[i]
			}
			if writeRun != nil {
				if err := writeRun(i, src); err != nil {
					return err
				}
			} else if moved {
				// megachunk merge writes back to DDR
				exec.CopyParallel(homes[i], src, int(copyW.Load()))
			}
			if staged {
				table.release(i)
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
			MaxCopyIn:    at.MaxCopyIn,
			WarmupChunks: at.WarmupChunks,
			Bytes:        units.BytesForElements(int64(cells)),
			Registry:     at.Registry,
			Next:         fs.Observer,
			// With a width control, copyW and sorter.width point into it.
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
	if table != nil {
		stats.Degraded, stats.AllocFailures = table.drain()
		stats.Staged = stats.Megachunks - stats.Degraded
	}
	fs.SettleScratch(scratch, err)
	return stats, err
}

// runRealBasic is Bender et al.'s basic algorithm: each megachunk is sorted
// with the *parallel* sort, then the megachunks are multiway merged.
func runRealBasic(ctx context.Context, xs []int64, threads, megachunkLen int, opts RealOptions) (RealStats, error) {
	if megachunkLen <= 0 {
		megachunkLen = (len(xs) + 3) / 4
	}
	runs := megachunks(xs, megachunkLen)
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
	if err := exec.RunContext(ctx, s, opts.buffers()); err != nil {
		return stats, err
	}
	return stats, finalMerge(ctx, xs, runs, threads, opts.Observer, ElemInt64)
}
