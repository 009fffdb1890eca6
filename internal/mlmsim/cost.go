package mlmsim

import (
	"fmt"
	"math"

	"knlmlm/internal/core"
	"knlmlm/internal/knl"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

func log2f(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// serialLevels reports the recursion depth of the serial divide-and-conquer
// sort over m elements: each level streams the level's whole data once
// (read+write), down to LeafElems-sized insertion-sort leaves (whose work
// is folded into the last level).
func (c Calibration) serialLevels(m int64) float64 {
	if m <= 0 {
		return 1
	}
	return math.Max(1, log2f(float64(m)/float64(c.LeafElems)))
}

// dramLevels reports how many of those levels have per-thread subproblems
// too large for the thread's core-cache share, and therefore reach the
// memory system.
func (c Calibration) dramLevels(m int64) float64 {
	bytes := float64(m) * float64(units.ElementSize)
	return math.Max(0, math.Min(c.serialLevels(m), log2f(bytes/float64(c.L2PerThread))))
}

// serialSortKernels builds the kernels of a phase in which `threads`
// threads each serially sort m elements (phase footprint = threads*m
// elements), with the data in the given placement.
//
//   - Flat placements (scratchpad or DDR) produce one kernel: the
//     DRAM-visible levels carry demand, the in-core remainder is pure
//     compute time, and DDR placement pays the latency penalty.
//   - CacheManaged produces one kernel per DRAM-visible recursion level,
//     because each level halves its working set: early levels thrash the
//     MCDRAM cache, deep levels run cache-resident — exactly the paper's
//     explanation for MLM-implicit's success.
//
// workFactor scales the pass count for input structure (workload profile)
// and library overhead (GNU inflation). staged marks data that an explicit
// copy-in just placed (so even level 0 is warm in cache terms — unused for
// flat placements).
func (c Calibration) serialSortKernels(
	m *knl.Machine, label string, threads int, elemsPerThread int64,
	placement core.Placement, workFactor float64, staged bool,
) []core.Kernel {
	if threads <= 0 || elemsPerThread <= 0 {
		panic(fmt.Sprintf("mlmsim: %s: bad serial sort shape %d x %d", label, threads, elemsPerThread))
	}
	phaseBytes := units.Bytes(threads) * units.BytesForElements(elemsPerThread)
	total := c.serialLevels(elemsPerThread) * workFactor
	dram := c.dramLevels(elemsPerThread) * workFactor

	if placement != core.CacheManaged {
		rate := c.SSerial
		if placement == core.DDRPlaced {
			// Only the DRAM-visible fraction of the work suffers DDR
			// latency; in-core touches run at full speed. Harmonic
			// blending: time/byte = inCore/S + (1-inCore)/(S*penalty).
			inCore := 1 - dram/total
			rate = units.BytesPerSec(float64(rate) / (inCore + (1-inCore)/c.DDRLatencyPenalty))
		}
		return []core.Kernel{{
			Label:          label,
			Threads:        threads,
			PerThread:      rate,
			Passes:         total,
			WorkingSet:     phaseBytes,
			WriteFraction:  0.5,
			Placement:      placement,
			InCoreFraction: 1 - dram/total,
		}}
	}

	// Cache-managed: one kernel per DRAM-visible level with halving
	// working sets, then the in-core remainder.
	var kernels []core.Kernel
	nLevels := int(math.Ceil(dram / workFactor)) // structural level count
	levelPasses := dram / math.Max(1, float64(nLevels))
	ws := phaseBytes
	for d := 0; d < nLevels; d++ {
		k := core.Kernel{
			Label:         fmt.Sprintf("%s/level%d", label, d),
			Threads:       threads,
			PerThread:     c.SSerial,
			Passes:        levelPasses,
			WorkingSet:    ws,
			WriteFraction: 0.5,
			Placement:     core.CacheManaged,
		}
		if d == 0 {
			if staged {
				k.ColdSweeps = core.NoColdSweeps
			} // else default: the first sweep is cold
		} else {
			// Data was streamed by the parent level, whose working set was
			// twice this level's.
			k.ColdSweeps = core.NoColdSweeps
			k.ReuseDistance = 2 * ws
		}
		// Cold/thrashing levels run at DDR-latency rates.
		if reusePoor(m, k) {
			k.PerThread = units.BytesPerSec(float64(c.SSerial) * c.DDRLatencyPenalty)
		}
		kernels = append(kernels, k)
		ws /= 2
	}
	if inCore := total - dram; inCore > 0 {
		kernels = append(kernels, core.Kernel{
			Label:          label + "/in-core",
			Threads:        threads,
			PerThread:      c.SSerial,
			Passes:         inCore,
			WorkingSet:     phaseBytes,
			WriteFraction:  0.5,
			Placement:      core.CacheManaged,
			ColdSweeps:     core.NoColdSweeps,
			ReuseDistance:  units.Bytes(float64(c.L2PerThread)) * units.Bytes(threads),
			InCoreFraction: 1,
		})
	}
	return kernels
}

// reusePoor reports whether a cache-managed kernel's warm sweeps still miss
// mostly (reuse below one half), meaning its threads stream from DDR.
func reusePoor(m *knl.Machine, k core.Kernel) bool {
	cap := m.CacheCapacity()
	if cap <= 0 {
		return true
	}
	dist := k.ReuseDistance
	if dist == 0 {
		dist = k.WorkingSet
	}
	if k.ColdSweeps != core.NoColdSweeps {
		return true // cold sweep dominates a single-pass level
	}
	// Mirror cachemodel.ReuseFraction's regimes without importing it here.
	switch {
	case dist <= cap:
		return false
	case dist >= 2*cap:
		return true
	default:
		return float64(2*cap-dist)/float64(dist) < 0.5
	}
}

// mergeKernel builds a parallel k-way merge kernel moving P payload bytes
// from src placement to dst placement (touched bytes 2P: read everything,
// write everything).
func (c Calibration) mergeKernel(
	m *knl.Machine, label string, threads, fanIn int, payload units.Bytes,
	src, dst core.Placement, staged bool,
) core.Kernel {
	rate := c.SMerge(fanIn)
	if src == core.DDRPlaced {
		rate = units.BytesPerSec(float64(rate) * c.DDRLatencyPenalty)
	}
	k := core.Kernel{
		Label:         label,
		Threads:       threads,
		PerThread:     rate,
		Passes:        1,
		WorkingSet:    payload,
		WriteFraction: 0.5,
		Placement:     src,
		DestPlacement: &dst,
		SourceScale:   c.MergeSourceScale(fanIn),
	}
	if staged {
		k.ColdSweeps = core.NoColdSweeps
	}
	return k
}

// orderFactors resolves the workload profile into (serial, comparison)
// pass-count factors.
func orderFactors(order workload.Order) (serial, comparison float64) {
	p := workload.ProfileFor(order)
	return p.SerialSortWorkFactor, p.ComparisonSortWorkFactor
}
