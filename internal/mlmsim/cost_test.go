package mlmsim

import (
	"math"
	"testing"

	"knlmlm/internal/core"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

func TestSerialSortKernelsFlatShape(t *testing.T) {
	cal := DefaultCalibration()
	m := Machine(mlmsort.MLMSort) // flat
	ks := cal.serialSortKernels(m, "sort", 256, 4_000_000, core.ScratchpadPlaced, 1, true)
	if len(ks) != 1 {
		t.Fatalf("flat placement should produce one kernel, got %d", len(ks))
	}
	k := ks[0]
	if k.Placement != core.ScratchpadPlaced {
		t.Errorf("placement = %v", k.Placement)
	}
	wantWS := units.Bytes(256) * units.BytesForElements(4_000_000)
	if k.WorkingSet != wantWS {
		t.Errorf("working set = %v, want %v", k.WorkingSet, wantWS)
	}
	if k.InCoreFraction <= 0 || k.InCoreFraction >= 1 {
		t.Errorf("in-core fraction = %v, want in (0,1)", k.InCoreFraction)
	}
	if k.PerThread != cal.SSerial {
		t.Errorf("scratchpad rate = %v, want SSerial", k.PerThread)
	}
}

func TestSerialSortKernelsDDRPenaltyBlended(t *testing.T) {
	cal := DefaultCalibration()
	m := Machine(mlmsort.MLMDDr)
	ks := cal.serialSortKernels(m, "sort", 256, 4_000_000, core.DDRPlaced, 1, false)
	rate := float64(ks[0].PerThread)
	// The blended rate sits strictly between the full penalty and no
	// penalty, because only DRAM-visible touches pay it.
	full := float64(cal.SSerial)
	slow := full * cal.DDRLatencyPenalty
	if rate <= slow || rate >= full {
		t.Errorf("blended DDR rate %v outside (%v, %v)", rate, slow, full)
	}
}

func TestSerialSortKernelsCacheDecomposition(t *testing.T) {
	cal := DefaultCalibration()
	m := Machine(mlmsort.MLMImplicit) // cache mode
	ks := cal.serialSortKernels(m, "sort", 256, 7_800_000, core.CacheManaged, 1, false)
	if len(ks) < 3 {
		t.Fatalf("cache placement should decompose into levels, got %d kernels", len(ks))
	}
	// Working sets halve level over level; the last kernel is the in-core
	// remainder.
	var prev units.Bytes
	for i, k := range ks[:len(ks)-1] {
		if i > 0 && !units.AlmostEqual(float64(k.WorkingSet), float64(prev)/2, 1e-9) {
			t.Errorf("level %d working set %v, want half of %v", i, k.WorkingSet, prev)
		}
		prev = k.WorkingSet
	}
	last := ks[len(ks)-1]
	if last.InCoreFraction != 1 {
		t.Errorf("final kernel should be in-core, got fraction %v", last.InCoreFraction)
	}
	// Total passes across kernels match the serial level count.
	var total float64
	for _, k := range ks {
		total += k.Passes
	}
	if want := cal.serialLevels(7_800_000); math.Abs(total-want) > 0.01*want {
		t.Errorf("total passes %v, want %v", total, want)
	}
	// Level 0 is cold (slow); a deep level is warm (full rate).
	if ks[0].PerThread >= ks[len(ks)-2].PerThread {
		t.Errorf("cold level rate %v should be below warm level rate %v",
			ks[0].PerThread, ks[len(ks)-2].PerThread)
	}
}

func TestSerialSortKernelsWorkFactorScales(t *testing.T) {
	cal := DefaultCalibration()
	m := Machine(mlmsort.MLMSort)
	base := cal.serialSortKernels(m, "s", 256, 4_000_000, core.ScratchpadPlaced, 1, true)[0]
	half := cal.serialSortKernels(m, "s", 256, 4_000_000, core.ScratchpadPlaced, 0.5, true)[0]
	if !units.AlmostEqual(half.Passes, base.Passes/2, 1e-9) {
		t.Errorf("work factor not applied: %v vs %v", half.Passes, base.Passes)
	}
}

func TestSerialSortKernelsPanicOnBadShape(t *testing.T) {
	cal := DefaultCalibration()
	m := Machine(mlmsort.MLMSort)
	defer func() {
		if recover() == nil {
			t.Error("zero threads should panic")
		}
	}()
	cal.serialSortKernels(m, "bad", 0, 100, core.DDRPlaced, 1, false)
}

func TestMergeKernelPlacements(t *testing.T) {
	cal := DefaultCalibration()
	m := Machine(mlmsort.MLMSort)
	k := cal.mergeKernel(m, "merge", 256, 256, units.GB, core.ScratchpadPlaced, core.DDRPlaced, true)
	f := k.Flow(m)
	// Reads stream MCDRAM (inflated by the multi-stream penalty), writes
	// land in DDR.
	wantMC := 0.5 * cal.MergeSourceScale(256)
	if !units.AlmostEqual(f.Demand[m.MCDRAM()], wantMC, 1e-9) {
		t.Errorf("MCDRAM coeff = %v, want %v", f.Demand[m.MCDRAM()], wantMC)
	}
	if !units.AlmostEqual(f.Demand[m.DDR()], 0.5, 1e-9) {
		t.Errorf("DDR coeff = %v", f.Demand[m.DDR()])
	}
	if f.Work != 2*units.GB {
		t.Errorf("touched bytes = %v, want 2 GB", f.Work)
	}
}

func TestMergeKernelDDRSourcePenalty(t *testing.T) {
	cal := DefaultCalibration()
	m := Machine(mlmsort.MLMDDr)
	fast := cal.mergeKernel(m, "m", 256, 2, units.GB, core.ScratchpadPlaced, core.DDRPlaced, true)
	slow := cal.mergeKernel(m, "m", 256, 2, units.GB, core.DDRPlaced, core.DDRPlaced, false)
	if slow.PerThread >= fast.PerThread {
		t.Errorf("DDR-source merge %v should be slower than MCDRAM-source %v",
			slow.PerThread, fast.PerThread)
	}
}

func TestOrderFactors(t *testing.T) {
	s, c := orderFactors(workload.Random)
	if s != 1 || c != 1 {
		t.Errorf("random factors = %v, %v", s, c)
	}
	s, c = orderFactors(workload.Reverse)
	if s >= 1 || c >= 1 || s > c {
		t.Errorf("reverse factors = %v, %v", s, c)
	}
}

func TestMegachunkExceedingMCDRAMPanics(t *testing.T) {
	cfg := PaperSortConfig(6_000_000_000, workload.Random)
	cfg.MegachunkElements = 3_000_000_000 // 24 GB > 16 GiB
	defer func() {
		if recover() == nil {
			t.Error("oversized flat-mode megachunk should panic")
		}
	}()
	Simulate(mlmsort.MLMSort, cfg)
}

func TestImplicitMegachunkMayExceedMCDRAM(t *testing.T) {
	cfg := PaperSortConfig(6_000_000_000, workload.Random)
	cfg.MegachunkElements = 3_000_000_000
	r := Simulate(mlmsort.MLMImplicit, cfg) // must not panic: no scratchpad involved
	if r.Time <= 0 {
		t.Error("non-positive time")
	}
}
