// Package knlmlm reproduces "Optimizing for KNL Usage Modes When Data
// Doesn't Fit in MCDRAM" (Butcher, Olivier, Berry, Hammond, Kogge;
// ICPP 2018) as a self-contained Go library.
//
// The paper's experiments require a Knights Landing node with
// BIOS-selectable MCDRAM modes; this repository substitutes a deterministic
// discrete-event simulation of the KNL memory system (see DESIGN.md for the
// substitution argument) and pairs it with real, executable implementations
// of every algorithm so correctness is testable end to end.
//
// Layering (bottom-up):
//
//   - internal/sim, internal/bandwidth — discrete-event engine and the
//     fluid bandwidth arbiter (max-min fair with priority classes);
//   - internal/mem, internal/cachesim, internal/cachemodel, internal/knl —
//     the machine: devices, usage modes, scratchpad allocator, direct-
//     mapped cache (trace-driven and analytic);
//   - internal/chunk, internal/exec — the chunking+buffering pipeline,
//     simulated and real;
//   - internal/psort — from-scratch sorting substrate (serial adaptive
//     introsort, loser-tree multiway merge, multisequence selection,
//     GNU-parallel-analog sort);
//   - internal/mlmsort — the paper's contribution run for real: MLM-sort
//     and friends over []int64, the code the service links;
//   - internal/core, internal/mlmsim, internal/mergebench,
//     internal/model, internal/stream — the same variants simulated on the
//     KNL, the Section 5 merge benchmark, the Section 3.2 analytic model,
//     and STREAM calibration;
//   - internal/report — the reproduction's tables, the occupancy analysis
//     of recorded spans, and the bridge of simulated traces into them.
//
// This root package is the facade: it exposes the experiment drivers that
// regenerate every table and figure in the paper (see EXPERIMENTS.md), used
// by cmd/paperrepro and the root benchmark suite.
package knlmlm

import (
	"knlmlm/internal/knl"
	"knlmlm/internal/mem"
	"knlmlm/internal/mlmsim"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// NewPaperMachine builds the paper's KNL node (Xeon Phi 7250, 16 GiB
// MCDRAM, Table 2 bandwidths) in the given MCDRAM mode.
func NewPaperMachine(mode mem.Mode) *knl.Machine {
	return knl.MustNew(knl.PaperConfig(mode))
}

// Sort simulates one sort configuration and returns its time in seconds.
// It is the simplest entry point; see Table1 and friends for the full
// experiment drivers.
func Sort(a mlmsort.Algorithm, elements int64, order workload.Order) float64 {
	return mlmsim.Simulate(a, mlmsim.PaperSortConfig(elements, order)).Time.Seconds()
}

// SortReal executes the algorithm's real data flow over xs in place.
func SortReal(a mlmsort.Algorithm, xs []int64, threads int) error {
	return mlmsort.RunReal(a, xs, threads, 0)
}

// PaperSizes lists Table 1's problem sizes.
func PaperSizes() []int64 {
	return []int64{2_000_000_000, 4_000_000_000, 6_000_000_000}
}

// MCDRAMCapacity reports the simulated node's MCDRAM size.
func MCDRAMCapacity() units.Bytes { return mem.KNL7250().MCDRAMCapacity }

// newMachine wraps knl.New for callers inside this package (benches and
// experiment drivers that build reconfigured what-if machines).
func newMachine(cfg knl.Config) (*knl.Machine, error) { return knl.New(cfg) }
