// Package mlmsim simulates the paper's Section 4 sort variants on the
// simulated KNL: each variant of internal/mlmsort (MLM-sort in flat mode,
// MLM-implicit in hardware cache mode, MLM-ddr without MCDRAM, the
// GNU-parallel-sort baselines and the basic chunked algorithm of Bender et
// al.) becomes a phase plan of internal/core kernels, priced by the
// calibrated cost model of Calibration. This is what reproduces Table 1,
// Figure 6 and Figure 7; internal/mlmsort runs the same variants for real.
package mlmsim

import (
	"fmt"

	"knlmlm/internal/units"
)

// Calibration holds the per-thread rate constants of the sort cost model.
//
// The memory-system constants (bandwidths, capacities) come from the
// machine spec; these constants describe the *cores'* throughput on the
// sort kernels and are anchored to the paper's Table 1 as documented on
// each field. They are deliberately few: five rates and two structural
// constants cover all thirty Table 1 cells plus Figures 6 and 7.
type Calibration struct {
	// SCopy is a copy thread's DDR<->MCDRAM rate (Table 2: 4.8 GB/s).
	SCopy units.BytesPerSec

	// SSerial is one thread's touched-byte rate running the serial
	// divide-and-conquer sort over near memory (MCDRAM or cache-warm
	// data). Anchor: MLM-implicit's 7.37 s at 2 G random elements is
	// almost entirely serial sort time.
	SSerial units.BytesPerSec

	// DDRLatencyPenalty scales a thread's rate when its working data
	// streams from DDR rather than MCDRAM. KNL's MCDRAM sustains more
	// outstanding requests per thread; under the high occupancy of a
	// 256-thread sort, DDR per-thread throughput degrades even before the
	// hard bandwidth cap binds. Anchor: MLM-ddr vs MLM-sort (9.28 s vs
	// 8.09 s at 2 G random) isolates this penalty, since the two variants
	// differ only in where the serial sorts read from.
	DDRLatencyPenalty float64

	// SMergeBase is one thread's touched-byte rate per comparison level:
	// a k-way merge runs at SMergeBase / max(1, log2(k)) per thread. This
	// makes merge comparison work consistent with the serial sort's
	// per-level pricing — a K-chunk sort's total comparisons are
	// N*(log2(M) + log2(K)) = N*log2(N) however it is chunked, as they
	// must be. Anchor: the multiway-merge share of GNU parallel sort's
	// runtime and MLM-sort's megachunk merges.
	SMergeBase units.BytesPerSec
	// MergeFanPenalty is the *memory-side* inefficiency of merging many
	// streams: a k-way merge's reads hop between k run heads, defeating
	// the prefetchers and DRAM row buffers, so its source-level traffic
	// is charged (1 + MergeFanPenalty*log2(k)) per payload byte. This is
	// what makes small chunk sizes lose in Figure 7: they shift
	// comparison work into a high-fan-in final merge whose DRAM
	// efficiency is poor.
	MergeFanPenalty float64

	// GNUWorkInflation multiplies the GNU baseline's local-sort work,
	// accounting for the parallel library's scheduling overhead and SMT
	// oversubscription relative to MLM-sort's one-thread-one-chunk
	// discipline (the paper: MLM-sort "does not rely on
	// thread-scalability of multithreaded algorithms"). Anchor: the
	// GNU-flat vs MLM-ddr gap (11.92 s vs 9.28 s), which no memory effect
	// explains — neither variant touches MCDRAM.
	GNUWorkInflation float64

	// LeafElems is the subarray size at which the serial sort's recursion
	// bottoms out into insertion sort (24, as in internal/psort).
	LeafElems int64

	// L2PerThread is the per-thread share of core-local cache: KNL has
	// 1 MiB L2 per 2-core tile; at 4-way SMT that is 128 KiB per thread.
	// Recursion levels whose subproblems fit are invisible to the memory
	// system.
	L2PerThread units.Bytes

	// TimeScale converts simulator time to the paper's reported seconds.
	// The fluid model's absolute rates are calibrated for *ratios*; one
	// global scale anchors GNU-flat at 2 G random elements to the paper's
	// 11.92 s. (See EXPERIMENTS.md for the absolute-vs-shape discussion.)
	TimeScale float64
}

// DefaultCalibration returns the constants used throughout the
// reproduction, as fitted by cmd/calibrate against the paper's Table 1
// (coordinate descent on the within-configuration speedup ratios; final
// rms log-ratio error ~7% across the 28 usable cells). Derivations of each
// constant's *role* are on the Calibration fields; rerun cmd/calibrate to
// regenerate the values.
func DefaultCalibration() Calibration {
	return Calibration{
		SCopy:             units.GBps(4.8),
		SSerial:           units.GBps(0.8078),
		DDRLatencyPenalty: 0.9426,
		SMergeBase:        units.GBps(0.6617),
		MergeFanPenalty:   0.0223,
		GNUWorkInflation:  1.4454,
		LeafElems:         24,
		L2PerThread:       128 * units.KiB,
		TimeScale:         1.6501, // 0.8399 (in-fit) x 1.9647 (anchor correction)
	}
}

// Validate reports whether the calibration is usable.
func (c Calibration) Validate() error {
	switch {
	case c.SCopy <= 0 || c.SSerial <= 0 || c.SMergeBase <= 0:
		return fmt.Errorf("mlmsim: rates must be positive: %+v", c)
	case c.DDRLatencyPenalty <= 0 || c.DDRLatencyPenalty > 1:
		return fmt.Errorf("mlmsim: DDR latency penalty %v outside (0,1]", c.DDRLatencyPenalty)
	case c.MergeFanPenalty < 0:
		return fmt.Errorf("mlmsim: negative merge fan penalty %v", c.MergeFanPenalty)
	case c.GNUWorkInflation < 1:
		return fmt.Errorf("mlmsim: GNU work inflation %v below 1", c.GNUWorkInflation)
	case c.LeafElems < 2:
		return fmt.Errorf("mlmsim: leaf size %d too small", c.LeafElems)
	case c.L2PerThread <= 0:
		return fmt.Errorf("mlmsim: non-positive L2 share %v", c.L2PerThread)
	case c.TimeScale <= 0:
		return fmt.Errorf("mlmsim: non-positive time scale %v", c.TimeScale)
	}
	return nil
}

// SMerge reports the per-thread touched-byte rate of a k-way merge.
func (c Calibration) SMerge(k int) units.BytesPerSec {
	if k < 2 {
		k = 2
	}
	levels := log2f(float64(k))
	if levels < 1 {
		levels = 1
	}
	return units.BytesPerSec(float64(c.SMergeBase) / levels)
}

// MergeSourceScale reports the source-level traffic multiplier of a k-way
// merge (multi-stream prefetch/row-buffer inefficiency).
func (c Calibration) MergeSourceScale(k int) float64 {
	if k < 2 {
		k = 2
	}
	return 1 + c.MergeFanPenalty*log2f(float64(k))
}
