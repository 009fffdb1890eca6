package memkind

import (
	"testing"

	"knlmlm/internal/mem"
	"knlmlm/internal/units"
)

func testHeap() *Heap {
	return NewHeap(16*units.GiB, 96*units.GiB)
}

func TestPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Policy{PolicyDDR, PolicyHBWBind, PolicyHBWPreferred, PolicyInterleave} {
		names[p.String()] = true
	}
	if len(names) != 4 {
		t.Errorf("policy names collide: %v", names)
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy name")
	}
}

func TestHeapFor(t *testing.T) {
	h := HeapFor(mem.KNL7250(), mem.Config{Mode: mem.Flat})
	if h.hbwAvailable() != 16*units.GiB {
		t.Errorf("flat heap hbw = %v", h.hbwAvailable())
	}
	hc := HeapFor(mem.KNL7250(), mem.Config{Mode: mem.Cache})
	if hc.hbwAvailable() != 0 {
		t.Errorf("cache-mode heap hbw = %v", hc.hbwAvailable())
	}
}

func TestPolicyDDR(t *testing.T) {
	h := testHeap()
	a, err := h.Alloc(PolicyDDR, units.GiB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.HBWFraction() != 0 || h.ddrInUse() != units.GiB || h.hbwInUse() != 0 {
		t.Errorf("ddr policy placed wrong: frac=%v", a.HBWFraction())
	}
	h.Free(a)
	if h.ddrInUse() != 0 {
		t.Error("free leaked")
	}
}

func TestPolicyBindFailsWhenExhausted(t *testing.T) {
	h := testHeap()
	a, err := h.Alloc(PolicyHBWBind, 16*units.GiB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.HBWFraction() != 1 {
		t.Errorf("bind fraction = %v", a.HBWFraction())
	}
	if _, err := h.Alloc(PolicyHBWBind, units.GiB, 0); err == nil {
		t.Error("bind beyond capacity should fail")
	}
	h.Free(a)
	if _, err := h.Alloc(PolicyHBWBind, units.GiB, 0); err != nil {
		t.Errorf("bind after free failed: %v", err)
	}
}

// The Li et al. configuration: a 48 GB array under --preferred fills the
// 16 GiB of MCDRAM and spills the rest to DDR.
func TestPolicyPreferredSpills(t *testing.T) {
	h := testHeap()
	size := 48 * units.GB
	a, err := h.Alloc(PolicyHBWPreferred, size, units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	wantFrac := float64(16*units.GiB) / float64(size)
	if f := a.HBWFraction(); !units.AlmostEqual(f, wantFrac, 0.05) {
		t.Errorf("preferred HBW fraction = %v, want ~%v", f, wantFrac)
	}
	if h.hbwAvailable() > units.GiB {
		t.Errorf("preferred left %v of MCDRAM unused", h.hbwAvailable())
	}
	ddr, mc := a.blendedDemand()
	if !units.AlmostEqual(ddr+mc, 1, 1e-9) || mc <= 0.3 || mc >= 0.4 {
		t.Errorf("blended demand = %v, %v", ddr, mc)
	}
	h.Free(a)
	if h.hbwInUse() != 0 || h.ddrInUse() != 0 {
		t.Error("free leaked across levels")
	}
}

func TestPolicyPreferredFitsEntirely(t *testing.T) {
	h := testHeap()
	a, err := h.Alloc(PolicyHBWPreferred, 8*units.GiB, units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if a.HBWFraction() != 1 {
		t.Errorf("small preferred allocation fraction = %v, want 1", a.HBWFraction())
	}
}

func TestPolicyInterleave(t *testing.T) {
	h := testHeap()
	a, err := h.Alloc(PolicyInterleave, 14*units.GiB, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantFrac := float64(16) / float64(16+96)
	if f := a.HBWFraction(); !units.AlmostEqual(f, wantFrac, 0.01) {
		t.Errorf("interleave fraction = %v, want %v", f, wantFrac)
	}
}

func TestAllocErrors(t *testing.T) {
	h := testHeap()
	if _, err := h.Alloc(PolicyDDR, 0, 0); err == nil {
		t.Error("zero-size allocation accepted")
	}
	if _, err := h.Alloc(Policy(99), units.GiB, 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := h.Alloc(PolicyDDR, 1000*units.GiB, 0); err == nil {
		t.Error("oversized DDR allocation accepted")
	}
	// Failed allocations must not leak partial reservations.
	if h.hbwInUse() != 0 || h.ddrInUse() != 0 {
		t.Error("failed allocations leaked")
	}
}

func TestFreeNil(t *testing.T) {
	testHeap().Free(nil) // must not panic
}
