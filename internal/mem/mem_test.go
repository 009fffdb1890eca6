package mem

import (
	"testing"

	"knlmlm/internal/units"
)

func TestModeStringParse(t *testing.T) {
	for m, want := range map[Mode]string{Flat: "flat", Cache: "cache", Hybrid: "hybrid"} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
	if s := Mode(42).String(); s != "Mode(42)" {
		t.Errorf("unknown mode String = %q", s)
	}
}

func TestKNL7250SpecValid(t *testing.T) {
	s := KNL7250()
	if err := s.Validate(); err != nil {
		t.Fatalf("KNL7250 spec invalid: %v", err)
	}
	if s.MCDRAMCapacity != 16*units.GiB {
		t.Errorf("MCDRAM capacity = %v", s.MCDRAMCapacity)
	}
	if s.DDRBandwidth.GBpsValue() != 90 || s.MCDRAMBandwidth.GBpsValue() != 400 {
		t.Errorf("bandwidths = %v / %v", s.DDRBandwidth, s.MCDRAMBandwidth)
	}
}

func TestSpecValidateRejections(t *testing.T) {
	base := KNL7250()
	cases := []func(*Spec){
		func(s *Spec) { s.DDRCapacity = 0 },
		func(s *Spec) { s.MCDRAMCapacity = -1 },
		func(s *Spec) { s.DDRBandwidth = 0 },
		func(s *Spec) { s.MCDRAMBandwidth = 0 },
		func(s *Spec) { s.CacheLine = 0 },
		func(s *Spec) { s.CacheTagOverhead = -0.1 },
		func(s *Spec) { s.CacheTagOverhead = 1.0 },
	}
	for i, mutate := range cases {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Mode: Flat}).Validate(); err != nil {
		t.Errorf("flat config invalid: %v", err)
	}
	if err := (Config{Mode: Hybrid, HybridCacheFraction: 0.5}).Validate(); err != nil {
		t.Errorf("hybrid 50%% invalid: %v", err)
	}
	for _, f := range []float64{0, 1, -0.5, 1.5} {
		if err := (Config{Mode: Hybrid, HybridCacheFraction: f}).Validate(); err == nil {
			t.Errorf("hybrid fraction %v should be rejected", f)
		}
	}
}

func TestCapacityPartitioning(t *testing.T) {
	s := KNL7250()
	mc := float64(s.MCDRAMCapacity)

	flat := Config{Mode: Flat}
	if got := s.ScratchpadCapacity(flat); got != s.MCDRAMCapacity {
		t.Errorf("flat scratchpad = %v", got)
	}
	if got := s.CacheCapacity(flat); got != 0 {
		t.Errorf("flat cache = %v", got)
	}

	cache := Config{Mode: Cache}
	if got := s.ScratchpadCapacity(cache); got != 0 {
		t.Errorf("cache scratchpad = %v", got)
	}
	wantCache := units.Bytes(mc * (1 - s.CacheTagOverhead))
	if got := s.CacheCapacity(cache); !units.AlmostEqual(float64(got), float64(wantCache), 1e-12) {
		t.Errorf("cache capacity = %v, want %v", got, wantCache)
	}

	hybrid := Config{Mode: Hybrid, HybridCacheFraction: 0.25}
	sp := s.ScratchpadCapacity(hybrid)
	cc := s.CacheCapacity(hybrid)
	if !units.AlmostEqual(float64(sp), mc*0.75, 1e-12) {
		t.Errorf("hybrid scratchpad = %v", sp)
	}
	if !units.AlmostEqual(float64(cc), mc*0.25*(1-s.CacheTagOverhead), 1e-12) {
		t.Errorf("hybrid cache = %v", cc)
	}
	// Partition accounting: scratchpad + raw cache = total MCDRAM.
	rawCache := float64(cc) / (1 - s.CacheTagOverhead)
	if !units.AlmostEqual(float64(sp)+rawCache, mc, 1e-9) {
		t.Errorf("partitions don't sum: %v + %v != %v", sp, rawCache, mc)
	}
}
