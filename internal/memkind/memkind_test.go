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
	for _, p := range []Policy{PolicyDDR, PolicyHBWBind, PolicyHBWPreferred, PolicyInterleave} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy name")
	}
}

func TestHeapFor(t *testing.T) {
	h := HeapFor(mem.KNL7250(), mem.Config{Mode: mem.Flat})
	if h.HBWAvailable() != 16*units.GiB {
		t.Errorf("flat heap hbw = %v", h.HBWAvailable())
	}
	hc := HeapFor(mem.KNL7250(), mem.Config{Mode: mem.Cache})
	if hc.HBWAvailable() != 0 {
		t.Errorf("cache-mode heap hbw = %v", hc.HBWAvailable())
	}
}

func TestPolicyDDR(t *testing.T) {
	h := testHeap()
	a, err := h.Alloc(PolicyDDR, units.GiB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.HBWFraction() != 0 || h.DDRInUse() != units.GiB || h.HBWInUse() != 0 {
		t.Errorf("ddr policy placed wrong: frac=%v", a.HBWFraction())
	}
	h.Free(a)
	if h.DDRInUse() != 0 {
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
	if h.HBWAvailable() > units.GiB {
		t.Errorf("preferred left %v of MCDRAM unused", h.HBWAvailable())
	}
	ddr, mc := a.BlendedDemand()
	if !units.AlmostEqual(ddr+mc, 1, 1e-9) || mc <= 0.3 || mc >= 0.4 {
		t.Errorf("blended demand = %v, %v", ddr, mc)
	}
	h.Free(a)
	if h.HBWInUse() != 0 || h.DDRInUse() != 0 {
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
	if h.HBWInUse() != 0 || h.DDRInUse() != 0 {
		t.Error("failed allocations leaked")
	}
}

func TestFreeNil(t *testing.T) {
	testHeap().Free(nil) // must not panic
}

type failSlots map[int]bool

func (f failSlots) FailAlloc(slot int) bool { return f[slot] }

// TestStagingPlace: the one flat-mode placement decision — an injected
// fault or an exhausted heap degrades the slot, no heap places notionally.
func TestStagingPlace(t *testing.T) {
	heap := NewHeap(100, units.GiB)
	cases := []struct {
		name      string
		s         Staging
		slot      int
		size      units.Bytes
		ok, alloc bool
	}{
		{"zero value places notionally", Staging{}, 0, 64, true, false},
		{"fault without a heap", Staging{Faults: failSlots{1: true}}, 1, 64, false, false},
		{"other slot unaffected", Staging{Faults: failSlots{1: true}}, 2, 64, true, false},
		{"heap serves", Staging{Heap: heap}, 0, 64, true, true},
		{"heap exhausted", Staging{Heap: heap}, 0, 64, false, false},
		{"fault beats a heap with room", Staging{Heap: NewHeap(100, 100), Faults: failSlots{0: true}}, 0, 64, false, false},
	}
	for _, c := range cases {
		a, ok := c.s.Place(c.slot, c.size)
		if ok != c.ok || (a != nil) != c.alloc {
			t.Errorf("%s: Place = (%v, %v), want alloc %v ok %v", c.name, a, ok, c.alloc, c.ok)
		}
	}
	if heap.HBWInUse() != 64 {
		t.Errorf("heap holds %v, want the one 64-byte placement", heap.HBWInUse())
	}
}
