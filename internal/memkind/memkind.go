// Package memkind models the allocation-policy layer the paper's flat-mode
// experiments sit on: memkind's hbw_malloc and the numactl-style policies
// that Li et al. (SC'17) used for their flat-mode runs, which the paper
// contrasts with explicit chunking ("their use of the flat mode does not
// entail chunking data sets larger than the MCDRAM capacity. Instead, they
// use the setting exposed through the 'numactl' tool that simply allocates
// data in DDR memory once the MCDRAM is full").
//
// A Heap tracks simulated allocations across the two levels under a
// policy, and an Allocation's HBWFraction tells the timing layer
// (internal/mlmsim) what fraction of a data structure landed in MCDRAM.
// The real pipelines do not place anything here: their MCDRAM is a
// budget-capped mem.SlicePool, whose refusal sends a buffer to DDR.
package memkind

import (
	"fmt"
	"sync"

	"knlmlm/internal/mem"
	"knlmlm/internal/units"
)

// Policy selects where allocations land, mirroring memkind/numactl modes.
type Policy int

const (
	// PolicyDDR allocates everything in DDR (the default heap).
	PolicyDDR Policy = iota
	// PolicyHBWBind allocates in MCDRAM and fails when it is exhausted
	// (memkind's HBW_POLICY_BIND).
	PolicyHBWBind
	// PolicyHBWPreferred allocates in MCDRAM while it lasts, then falls
	// back to DDR (numactl --preferred; memkind HBW_POLICY_PREFERRED).
	// This is the Li et al. flat-mode configuration.
	PolicyHBWPreferred
	// PolicyInterleave stripes allocations across both levels in
	// proportion to their capacity (numactl --interleave analog at
	// allocation granularity).
	PolicyInterleave
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyDDR:
		return "ddr"
	case PolicyHBWBind:
		return "hbw-bind"
	case PolicyHBWPreferred:
		return "hbw-preferred"
	case PolicyInterleave:
		return "interleave"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Heap is a two-level simulated heap. Alloc and Free are safe for
// concurrent use — the job scheduler shares one heap across every
// running pipeline, exactly as memkind shares the physical MCDRAM.
type Heap struct {
	mu  sync.Mutex
	hbw *mem.Scratchpad
	ddr *mem.Scratchpad
}

// NewHeap creates a heap over the given MCDRAM (hbw) and DDR capacities.
func NewHeap(hbwCap, ddrCap units.Bytes) *Heap {
	return &Heap{hbw: mem.NewScratchpad(hbwCap), ddr: mem.NewScratchpad(ddrCap)}
}

// HeapFor builds the heap implied by a machine spec and mode config: the
// hbw side is the mode's scratchpad partition.
func HeapFor(spec mem.Spec, cfg mem.Config) *Heap {
	return NewHeap(spec.ScratchpadCapacity(cfg), spec.DDRCapacity)
}

// Allocation is one policy-placed object, possibly split across levels.
type Allocation struct {
	heap *Heap
	// hbwBlocks and ddrBlocks hold the per-level pieces.
	hbwBlocks []mem.Block
	ddrBlocks []mem.Block
	hbwBytes  units.Bytes
	ddrBytes  units.Bytes
}

// Size reports the allocation's total size.
func (a *Allocation) Size() units.Bytes { return a.hbwBytes + a.ddrBytes }

// HBWFraction reports the fraction resident in MCDRAM.
func (a *Allocation) HBWFraction() float64 {
	total := a.Size()
	if total == 0 {
		return 0
	}
	return float64(a.hbwBytes) / float64(total)
}

// Alloc places n bytes under the policy. chunk is the placement
// granularity for split policies (preferred/interleave); zero uses 64 MiB,
// a typical huge-page-backed arena step.
func (h *Heap) Alloc(policy Policy, n units.Bytes, chunk units.Bytes) (*Allocation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("memkind: invalid allocation size %v", n)
	}
	if chunk <= 0 {
		chunk = 64 * units.MiB
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	a := &Allocation{heap: h}
	fail := func(err error) (*Allocation, error) {
		h.freeLocked(a)
		return nil, err
	}

	switch policy {
	case PolicyDDR:
		b, err := h.ddr.Alloc(n)
		if err != nil {
			return fail(err)
		}
		a.ddrBlocks = append(a.ddrBlocks, b)
		a.ddrBytes = n
	case PolicyHBWBind:
		b, err := h.hbw.Alloc(n)
		if err != nil {
			return fail(fmt.Errorf("memkind: HBW_POLICY_BIND failed: %w", err))
		}
		a.hbwBlocks = append(a.hbwBlocks, b)
		a.hbwBytes = n
	case PolicyHBWPreferred:
		remaining := n
		for remaining > 0 {
			step := chunk
			if step > remaining {
				step = remaining
			}
			if b, err := h.hbw.Alloc(step); err == nil {
				a.hbwBlocks = append(a.hbwBlocks, b)
				a.hbwBytes += step
			} else {
				// MCDRAM exhausted: everything else falls back to DDR.
				b, derr := h.ddr.Alloc(remaining)
				if derr != nil {
					return fail(derr)
				}
				a.ddrBlocks = append(a.ddrBlocks, b)
				a.ddrBytes += remaining
				remaining = 0
				break
			}
			remaining -= step
		}
	case PolicyInterleave:
		// Stripe proportionally to level capacities.
		hbwShare := float64(h.hbw.Capacity()) / float64(h.hbw.Capacity()+h.ddr.Capacity())
		hbwPart := units.Bytes(float64(n) * hbwShare)
		if hbwPart > 0 {
			b, err := h.hbw.Alloc(hbwPart)
			if err != nil {
				return fail(err)
			}
			a.hbwBlocks = append(a.hbwBlocks, b)
			a.hbwBytes = hbwPart
		}
		if rest := n - hbwPart; rest > 0 {
			b, err := h.ddr.Alloc(rest)
			if err != nil {
				return fail(err)
			}
			a.ddrBlocks = append(a.ddrBlocks, b)
			a.ddrBytes = rest
		}
	default:
		return fail(fmt.Errorf("memkind: unknown policy %v", policy))
	}
	return a, nil
}

// Free releases an allocation's blocks on both levels.
func (h *Heap) Free(a *Allocation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.freeLocked(a)
}

func (h *Heap) freeLocked(a *Allocation) {
	if a == nil {
		return
	}
	for _, b := range a.hbwBlocks {
		h.hbw.Free(b)
	}
	for _, b := range a.ddrBlocks {
		h.ddr.Free(b)
	}
	a.hbwBlocks = nil
	a.ddrBlocks = nil
	a.hbwBytes = 0
	a.ddrBytes = 0
}

// hbwInUse and ddrInUse report current usage per level.
func (h *Heap) hbwInUse() units.Bytes {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hbw.InUse()
}

func (h *Heap) ddrInUse() units.Bytes {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ddr.InUse()
}

// hbwAvailable reports remaining MCDRAM.
func (h *Heap) hbwAvailable() units.Bytes {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hbw.Available()
}

// blendedDemand derives bandwidth-demand coefficients for a streaming
// kernel over an allocation: the MCDRAM-resident fraction streams from
// MCDRAM, the rest from DDR. This is how the timing layer prices a Li-et-
// al-style "preferred" run whose array straddles the levels.
func (a *Allocation) blendedDemand() (ddr, mcdram float64) {
	f := a.HBWFraction()
	return 1 - f, f
}
