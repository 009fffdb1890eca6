// Package mlmsort runs the paper's Section 4 algorithms for real: MLM-sort
// and its variants (MLM-sort in flat mode, MLM-implicit in hardware cache
// mode, MLM-ddr without MCDRAM), the GNU-parallel-sort baselines (flat and
// hardware cache mode), and the basic chunked algorithm of Bender et al.,
// over []int64 cells on internal/psort and internal/exec. This is the code
// the library, the scheduler and the spill path run, and what proves the
// algorithms correct.
//
// The simulated phase plans of the same variants, which reproduce Table 1,
// Figure 6 and Figure 7 on the simulated KNL, live in internal/mlmsim.
package mlmsort

import "fmt"

// Algorithm identifies one of the evaluated sort variants.
type Algorithm int

const (
	// GNUFlat is GNU parallel sort with all data in DDR (flat mode,
	// MCDRAM unused) — the paper's baseline.
	GNUFlat Algorithm = iota
	// GNUCache is GNU parallel sort in hardware cache mode.
	GNUCache
	// MLMDDr is MLM-sort's structure run entirely out of DDR.
	MLMDDr
	// MLMSort is MLM-sort in flat mode with explicit staging to MCDRAM.
	MLMSort
	// MLMImplicit runs the chunked algorithm in hardware cache mode with
	// megachunk size equal to the problem size — the paper's implicit
	// cache mode.
	MLMImplicit
	// BasicChunked is the algorithm of Bender et al.: chunk into
	// MCDRAM-sized pieces, sort each chunk with the *parallel* sort, then
	// multiway merge. Evaluated in flat mode.
	BasicChunked
	// MLMHybrid runs MLM-sort in hybrid mode (half scratchpad, half
	// cache): identical staging to MLM-sort but with megachunks limited to
	// the smaller scratchpad partition. The paper ran this configuration
	// and reported it "near identical performance to flat, given a chunk
	// size" — this variant reproduces that claim (extension; not a Table 1
	// column).
	MLMHybrid
	// GNUPreferred is GNU parallel sort in flat mode with the arrays
	// allocated under numactl --preferred / HBW_POLICY_PREFERRED: MCDRAM
	// fills first, the remainder spills to DDR. This is the Li et al.
	// (SC'17) flat-mode configuration the paper's related-work section
	// contrasts with chunking (extension; not a Table 1 column).
	GNUPreferred
)

var algNames = map[Algorithm]string{
	GNUFlat:      "GNU-flat",
	GNUCache:     "GNU-cache",
	MLMDDr:       "MLM-ddr",
	MLMSort:      "MLM-sort",
	MLMImplicit:  "MLM-implicit",
	BasicChunked: "Basic-chunked",
	MLMHybrid:    "MLM-hybrid",
	GNUPreferred: "GNU-preferred",
}

// String reports the paper's name for the algorithm.
func (a Algorithm) String() string {
	if s, ok := algNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists the paper's five Table 1 variants in report order.
func Algorithms() []Algorithm {
	return []Algorithm{GNUFlat, GNUCache, MLMDDr, MLMSort, MLMImplicit}
}
