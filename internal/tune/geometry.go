package tune

import (
	"math/bits"

	"knlmlm/internal/units"
)

// Flow is the data flow a pipeline moves its megachunks by. It decides
// how a job is cut.
type Flow uint8

const (
	// InPlace sorts each megachunk where it lives (the paper's MLM-ddr and
	// MLM-implicit): near memory holds the sort scratch and nothing else.
	InPlace Flow = iota
	// Spill is InPlace with every sorted megachunk leaving as a run file,
	// streamed from where it was sorted.
	Spill
)

var flowNames = [...]string{"in-place", "spill"}

func (f Flow) String() string { return flowNames[f] }

// MinMegachunk keeps a cut job's megachunks above the size where the
// per-chunk pipeline cost shows; mlmsort holds a megachunk's per-worker
// blocks to the same floor.
const MinMegachunk = 4096

// Footprint is what one pipeline holds in near memory to run megachunks of
// up to mc cells, and so what the job leases: the sort scratch at mc's
// power-of-two size class, the pool's unit, so that what the pool hands
// out is what the ledger charged. Both flows hold the scratch alone.
func Footprint(mc int) units.Bytes {
	return units.Bytes(int64(ceilPow2(mc)) * 8)
}

// MaxMegachunk is the largest power-of-two megachunk whose footprint the
// budget covers (0 when it covers none).
func MaxMegachunk(budget units.Bytes) int {
	return floorPow2(int(int64(budget) / 8))
}

// Megachunk cuts a job of the given cell count, whose elements are width
// cells each, for a pipeline of the given flow under a near-memory budget.
// It is the paper's Figure 7 answered for this host, where the near memory
// is a cache and nothing has to be staged into it (EXPERIMENTS.md, "Modes
// and Figure 7 on the real path", has the sweep every rule here rests on):
//
//   - In place, the megachunk is the job whenever the job's footprint fits
//     the budget (MLM-implicit: "megachunk size equal to problem size"), and
//     the largest megachunk that fits otherwise. One megachunk won at every
//     size the sweep reached inside a budget, so there is no crossover
//     constant here.
//   - Spilled, each megachunk is a run file and the download merges them
//     all, so it is the largest run the budget sorts (the external-sort
//     rule), held to half of that: a whole-budget lease dispatches only when
//     the ledger is idle and would starve at the queue head under mixed
//     traffic.
//
// The result holds whole elements, is never under MinMegachunk unless the
// job or the budget is, and is 0 only when the budget covers no megachunk.
func Megachunk(cells, width int, budget units.Bytes, flow Flow) int {
	largest := MaxMegachunk(budget)
	if flow == InPlace && Footprint(cells) <= budget {
		return cells
	}
	mc := largest
	if flow == Spill {
		mc = min(ceilPow2(cells), largest/2)
	}
	mc = min(max(mc, MinMegachunk), largest)
	return mc - mc%width
}

func floorPow2(n int) int {
	if n < 1 {
		return 0
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

func ceilPow2(n int) int {
	if n < 2 {
		return 2
	}
	return 1 << bits.Len(uint(n-1))
}
