package mergebench

import (
	"context"
	"fmt"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/psort"
	"knlmlm/internal/telemetry"
)

// RealOptions configures RunRealResilient. The zero value is the plain
// benchmark: no telemetry, no faults, no retries.
type RealOptions struct {
	// Observer, when non-nil, receives per-chunk stage spans — including
	// buffer-wait starvation — from the pipeline (typically a
	// telemetry.Recorder). Compute spans are charged 2*repeats read+write
	// sweeps per byte, matching both exec.Instrument's convention and the
	// simulated pipeline's WorkPerChunkByte, so telemetry totals line up
	// across all three layers.
	Observer exec.Observer
	// Resilience, when non-nil, receives retry and run outcome counters.
	Resilience *telemetry.Resilience
	// Policy bounds per-chunk stage attempts (retries) and carries the
	// stage-set rewrite the fault injector plugs into.
	exec.Policy
}

// RunRealResilient executes the benchmark's data flow for real: the source
// array is staged chunk-by-chunk through buffers by exec.RunContext; the
// compute stage splits each chunk in half and merges the sorted halves
// `repeats` times. It returns the processed output array for verification.
// The run is cancellable through ctx, and per-chunk stage failures are
// retried under opts.Retry. The staging buffers and the compute scratch
// come from the shared mem.Pool.
func RunRealResilient(ctx context.Context, src []int64, chunkLen, repeats, buffers int, opts RealOptions) ([]int64, error) {
	out, err := runRealResilient(ctx, src, chunkLen, repeats, buffers, opts)
	if opts.Resilience != nil {
		opts.Resilience.RecordOutcome(err)
	}
	return out, err
}

func runRealResilient(ctx context.Context, src []int64, chunkLen, repeats, buffers int, opts RealOptions) ([]int64, error) {
	if chunkLen < 2 {
		return nil, fmt.Errorf("mergebench: chunk length %d must be at least 2", chunkLen)
	}
	if repeats < 1 {
		return nil, fmt.Errorf("mergebench: repeats %d must be at least 1", repeats)
	}
	if buffers < 1 {
		return nil, fmt.Errorf("mergebench: need at least one buffer, got %d", buffers)
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
	err := exec.RunContext(ctx, stages, buffers)
	stages.Pool.Put(scratch)
	if err != nil {
		return nil, err
	}
	return out, nil
}
