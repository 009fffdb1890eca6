package mergebench

import (
	"context"
	"fmt"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/memkind"
	"knlmlm/internal/psort"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
)

// RealOptions configures RunRealResilient. The zero value is the plain
// benchmark: no telemetry, no simulated heap, no faults, no retries.
type RealOptions struct {
	// Observer, when non-nil, receives per-chunk stage spans — including
	// buffer-wait starvation — from the pipeline (typically a
	// telemetry.Recorder). Compute spans are charged 2*repeats read+write
	// sweeps per byte, matching both exec.Instrument's convention and the
	// simulated pipeline's WorkPerChunkByte, so telemetry totals line up
	// across all three layers.
	Observer exec.Observer
	// Staging places the staging buffers: each tries HBW_POLICY_BIND on
	// its simulated heap first (injected faults, keyed by buffer index,
	// can fail that too) and degrades to DDR when MCDRAM is exhausted.
	memkind.Staging
	// Resilience, when non-nil, receives retry, degradation, and run
	// outcome counters.
	Resilience *telemetry.Resilience
	// Policy bounds per-chunk stage attempts (retries, deadline) and
	// carries the stage-set rewrite the fault injector plugs into.
	exec.Policy
}

// RealStats summarizes one resilient run's buffer placement.
type RealStats struct {
	// Buffers is the staging-buffer count the pipeline actually ran with.
	Buffers int
	// HBWBuffers counts buffers placed in MCDRAM.
	HBWBuffers int
	// DegradedBuffers counts buffers that fell back to DDR.
	DegradedBuffers int
	// DroppedBuffers counts buffers that fit on neither level; the
	// pipeline runs narrower instead of failing, as long as one buffer
	// remains.
	DroppedBuffers int
	// AllocFailures counts failed HBW placements (injected or genuine).
	AllocFailures int
}

// RunRealResilient executes the benchmark's data flow for real: the source
// array is staged chunk-by-chunk through buffers by exec.RunContext; the
// compute stage splits each chunk in half and merges the sorted halves
// `repeats` times. It returns the processed output array for verification.
// The run is cancellable through ctx, per-chunk stage failures are retried
// under opts.Retry, and staging buffers that cannot be placed in simulated
// MCDRAM degrade to DDR (or are dropped, narrowing the pipeline) instead
// of failing the benchmark.
func RunRealResilient(ctx context.Context, src []int64, chunkLen, repeats, buffers int, opts RealOptions) ([]int64, RealStats, error) {
	out, stats, err := runRealResilient(ctx, src, chunkLen, repeats, buffers, opts)
	if opts.Resilience != nil {
		opts.Resilience.RecordOutcome(err)
	}
	return out, stats, err
}

// placeBuffers places the staging buffers on the simulated heap,
// degrading per buffer from MCDRAM to DDR. It returns the placement tally
// and the live allocations the caller must free after the run.
func placeBuffers(buffers int, chunkBytes units.Bytes, o RealOptions) (RealStats, []*memkind.Allocation, error) {
	var stats RealStats
	var allocs []*memkind.Allocation
	for bi := 0; bi < buffers; bi++ {
		a, ok := o.Place(bi, chunkBytes)
		if ok {
			stats.HBWBuffers++
		} else {
			stats.AllocFailures++
			if o.Heap != nil {
				// Without a simulated heap the DDR placement is notional and
				// an injected failure exercises only the bookkeeping.
				var err error
				if a, err = o.Heap.Alloc(memkind.PolicyDDR, chunkBytes, 0); err != nil {
					stats.DroppedBuffers++
					continue
				}
			}
			stats.DegradedBuffers++
			if o.Resilience != nil {
				o.Resilience.RecordDegradation("mergebench-buffer")
			}
		}
		stats.Buffers++
		if a != nil {
			allocs = append(allocs, a)
		}
	}
	if stats.Buffers == 0 {
		return stats, allocs, fmt.Errorf("mergebench: no staging buffer placeable on either memory level")
	}
	return stats, allocs, nil
}

func runRealResilient(ctx context.Context, src []int64, chunkLen, repeats, buffers int, opts RealOptions) ([]int64, RealStats, error) {
	if chunkLen < 2 {
		return nil, RealStats{}, fmt.Errorf("mergebench: chunk length %d must be at least 2", chunkLen)
	}
	if repeats < 1 {
		return nil, RealStats{}, fmt.Errorf("mergebench: repeats %d must be at least 1", repeats)
	}
	if buffers < 1 {
		return nil, RealStats{}, fmt.Errorf("mergebench: need at least one buffer, got %d", buffers)
	}
	stats, allocs, err := placeBuffers(buffers, units.BytesForElements(int64(chunkLen)), opts)
	defer func() {
		for _, a := range allocs {
			opts.Heap.Free(a)
		}
	}()
	if err != nil {
		return nil, stats, err
	}

	n := len(src)
	out := make([]int64, n)
	numChunks := (n + chunkLen - 1) / chunkLen
	bounds := func(i int) (int, int) {
		lo := i * chunkLen
		hi := lo + chunkLen
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	scratch := mem.Pool.Get(chunkLen)
	stages := exec.Stages{
		NumChunks: numChunks,
		ChunkLen: func(i int) int {
			lo, hi := bounds(i)
			return hi - lo
		},
		CopyIn: func(i int, buf []int64) error {
			lo, hi := bounds(i)
			copy(buf, src[lo:hi])
			return nil
		},
		Compute: func(i int, buf []int64) error {
			// The benchmark's kernel: sort each half once so the merges
			// operate on sorted runs, then merge the halves repeatedly.
			// The halves sort through the adaptive dispatcher (radix for
			// large chunks), each borrowing its own disjoint slice of the
			// merge scratch as radix scratch.
			half := len(buf) / 2
			psort.SortAdaptive(buf[:half], scratch[:half])
			psort.SortAdaptive(buf[half:], scratch[half:len(buf)])
			s := scratch[:len(buf)]
			for r := 0; r < repeats; r++ {
				psort.Merge2(s, buf[:half], buf[half:])
				copy(buf, s)
				// After the first merge the buffer is fully sorted; further
				// repeats re-merge the (sorted) halves, which is exactly
				// the artificial re-work the paper's repeats knob creates.
			}
			return nil
		},
		CopyOut: func(i int, buf []int64) error {
			lo, hi := bounds(i)
			copy(out[lo:hi], buf)
			return nil
		},
		TouchedPerElem: int64(2 * repeats * 8),
	}
	stages = telemetry.FinishStages(stages, opts.Policy, opts.Resilience, opts.Observer, mem.Pool)
	err = exec.RunContext(ctx, stages, stats.Buffers)
	stages.SettleScratch(scratch, err)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}
