package mlmsim

import (
	"testing"

	"knlmlm/internal/mlmsort"
	"knlmlm/internal/workload"
)

func TestAlgorithmNamesAndModes(t *testing.T) {
	if len(mlmsort.Algorithms()) != 5 {
		t.Fatalf("Algorithms() = %v", mlmsort.Algorithms())
	}
	wantNames := map[mlmsort.Algorithm]string{
		mlmsort.GNUFlat: "GNU-flat", mlmsort.GNUCache: "GNU-cache", mlmsort.MLMDDr: "MLM-ddr",
		mlmsort.MLMSort: "MLM-sort", mlmsort.MLMImplicit: "MLM-implicit", mlmsort.BasicChunked: "Basic-chunked",
	}
	for a, name := range wantNames {
		if a.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), name)
		}
	}
	if mlmsort.Algorithm(99).String() != "Algorithm(99)" {
		t.Error("unknown algorithm name")
	}
	if Mode(mlmsort.GNUCache).String() != "cache" || Mode(mlmsort.MLMImplicit).String() != "cache" {
		t.Error("cache-mode variants misclassified")
	}
	for _, a := range []mlmsort.Algorithm{mlmsort.GNUFlat, mlmsort.MLMDDr, mlmsort.MLMSort, mlmsort.BasicChunked} {
		if Mode(a).String() != "flat" {
			t.Errorf("%v should run in flat mode", a)
		}
	}
}

func TestDefaultCalibrationValid(t *testing.T) {
	if err := DefaultCalibration().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationValidateRejections(t *testing.T) {
	base := DefaultCalibration()
	muts := []func(*Calibration){
		func(c *Calibration) { c.SCopy = 0 },
		func(c *Calibration) { c.SSerial = 0 },
		func(c *Calibration) { c.SMergeBase = 0 },
		func(c *Calibration) { c.DDRLatencyPenalty = 0 },
		func(c *Calibration) { c.DDRLatencyPenalty = 1.5 },
		func(c *Calibration) { c.MergeFanPenalty = -1 },
		func(c *Calibration) { c.GNUWorkInflation = 0.9 },
		func(c *Calibration) { c.LeafElems = 1 },
		func(c *Calibration) { c.L2PerThread = 0 },
		func(c *Calibration) { c.TimeScale = 0 },
	}
	for i, m := range muts {
		c := base
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSMergeDecreasesWithFanIn(t *testing.T) {
	c := DefaultCalibration()
	if c.SMerge(2) <= c.SMerge(256) {
		t.Errorf("SMerge(2)=%v should exceed SMerge(256)=%v", c.SMerge(2), c.SMerge(256))
	}
	if c.SMerge(1) != c.SMerge(2) {
		t.Error("fan-in below 2 should clamp to 2")
	}
}

func TestLevelArithmetic(t *testing.T) {
	c := DefaultCalibration()
	if got := c.serialLevels(24); got != 1 {
		t.Errorf("serialLevels(leaf) = %v, want 1", got)
	}
	if got := c.serialLevels(0); got != 1 {
		t.Errorf("serialLevels(0) = %v, want 1", got)
	}
	// 7.8M elements: ~18.3 levels, ~8.9 of them DRAM-visible.
	l, d := c.serialLevels(7_800_000), c.dramLevels(7_800_000)
	if l < 17 || l > 19 {
		t.Errorf("serialLevels(7.8M) = %v", l)
	}
	if d < 8 || d > 10 {
		t.Errorf("dramLevels(7.8M) = %v", d)
	}
	if d > l {
		t.Error("dram levels exceed total levels")
	}
	// Tiny subproblems never leave the core cache.
	if got := c.dramLevels(1000); got != 0 {
		t.Errorf("dramLevels(1000) = %v, want 0", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := PaperSortConfig(1e9, workload.Random)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Elements: 0, Threads: 1, Cal: DefaultCalibration()},
		{Elements: 1, Threads: 0, Cal: DefaultCalibration()},
		{Elements: 1, Threads: 1, MegachunkElements: -1, Cal: DefaultCalibration()},
		{Elements: 1, Threads: 1}, // zero calibration
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMegachunkDefaults(t *testing.T) {
	c := PaperSortConfig(2_000_000_000, workload.Random)
	if got := c.megachunk(mlmsort.MLMSort); got != 1_000_000_000 {
		t.Errorf("2G MLM-sort megachunk = %d, want 1G", got)
	}
	if got := c.megachunk(mlmsort.MLMImplicit); got != 2_000_000_000 {
		t.Errorf("implicit megachunk = %d, want N", got)
	}
	c6 := PaperSortConfig(6_000_000_000, workload.Random)
	if got := c6.megachunk(mlmsort.MLMSort); got != 1_500_000_000 {
		t.Errorf("6G megachunk = %d, want 1.5G", got)
	}
	small := PaperSortConfig(500_000_000, workload.Random)
	if got := small.megachunk(mlmsort.MLMDDr); got != 500_000_000 {
		t.Errorf("sub-1G megachunk = %d, want N", got)
	}
	override := c
	override.MegachunkElements = 123
	if got := override.megachunk(mlmsort.MLMSort); got != 123 {
		t.Errorf("override megachunk = %d", got)
	}
}

func TestPlanRequiresMatchingMode(t *testing.T) {
	c := PaperSortConfig(2_000_000_000, workload.Random)
	m := Machine(mlmsort.GNUFlat) // flat machine
	defer func() {
		if recover() == nil {
			t.Error("cache-mode algorithm on flat machine should panic")
		}
	}()
	Plan(m, mlmsort.GNUCache, c)
}

func TestSimulatePositiveTimes(t *testing.T) {
	c := PaperSortConfig(2_000_000_000, workload.Random)
	for _, a := range append(mlmsort.Algorithms(), mlmsort.BasicChunked) {
		r := Simulate(a, c)
		if r.Time <= 0 {
			t.Errorf("%v: non-positive time", a)
		}
		if r.Trace == nil || len(r.Trace.Phases) == 0 {
			t.Errorf("%v: empty trace", a)
		}
	}
}

// Golden shape: the paper's Table 1 ordering for random inputs.
// MLM-implicit < MLM-sort < MLM-ddr < GNU-cache < GNU-flat.
func TestTable1OrderingRandom(t *testing.T) {
	for _, n := range []int64{2_000_000_000, 4_000_000_000} {
		c := PaperSortConfig(n, workload.Random)
		times := map[mlmsort.Algorithm]float64{}
		for _, a := range mlmsort.Algorithms() {
			times[a] = Simulate(a, c).Time.Seconds()
		}
		order := []mlmsort.Algorithm{mlmsort.MLMImplicit, mlmsort.MLMSort, mlmsort.MLMDDr, mlmsort.GNUCache, mlmsort.GNUFlat}
		for i := 1; i < len(order); i++ {
			if times[order[i-1]] >= times[order[i]] {
				t.Errorf("n=%d: %v (%.2f) should beat %v (%.2f)",
					n, order[i-1], times[order[i-1]], order[i], times[order[i]])
			}
		}
	}
}

// Golden shape: the headline 1.6-1.9x band — best MLM variant vs GNU-flat
// lands in [1.5, 2.2] for both input orders (paper: ~1.6 random, ~1.9
// reverse).
func TestHeadlineSpeedupBand(t *testing.T) {
	for _, order := range workload.PaperOrders() {
		c := PaperSortConfig(2_000_000_000, order)
		base := Simulate(mlmsort.GNUFlat, c).Time.Seconds()
		best := base
		for _, a := range []mlmsort.Algorithm{mlmsort.MLMSort, mlmsort.MLMImplicit} {
			if tt := Simulate(a, c).Time.Seconds(); tt < best {
				best = tt
			}
		}
		speedup := base / best
		if speedup < 1.5 || speedup > 2.2 {
			t.Errorf("%v: best MLM speedup %.2fx outside the paper's band", order, speedup)
		}
	}
}

// Golden shape: reverse inputs are faster than random for every variant,
// and help the MLM variants more than the GNU baselines.
func TestReverseInputAdvantage(t *testing.T) {
	n := int64(2_000_000_000)
	ratio := func(a mlmsort.Algorithm) float64 {
		r := Simulate(a, PaperSortConfig(n, workload.Reverse)).Time.Seconds()
		rnd := Simulate(a, PaperSortConfig(n, workload.Random)).Time.Seconds()
		return r / rnd
	}
	for _, a := range mlmsort.Algorithms() {
		if r := ratio(a); r >= 1 {
			t.Errorf("%v: reverse input not faster (ratio %.2f)", a, r)
		}
	}
	if ratio(mlmsort.MLMDDr) >= ratio(mlmsort.GNUFlat) {
		t.Errorf("MLM should exploit reverse structure more than GNU: %v vs %v",
			ratio(mlmsort.MLMDDr), ratio(mlmsort.GNUFlat))
	}
}

// Bender corroboration (Section 4): the basic chunked algorithm beats
// GNU-flat by roughly 30% but does NOT beat GNU parallel sort in hardware
// cache mode.
func TestBenderCorroboration(t *testing.T) {
	c := PaperSortConfig(4_000_000_000, workload.Random)
	flat := Simulate(mlmsort.GNUFlat, c).Time.Seconds()
	cache := Simulate(mlmsort.GNUCache, c).Time.Seconds()
	basic := Simulate(mlmsort.BasicChunked, c).Time.Seconds()
	gain := flat / basic
	if gain < 1.1 || gain > 1.6 {
		t.Errorf("basic chunked gain over GNU-flat = %.2fx, expected roughly 1.3x", gain)
	}
	if basic < cache*0.97 {
		t.Errorf("basic chunked (%.2f) should not materially beat GNU-cache (%.2f)", basic, cache)
	}
}

// Scaling: times grow with problem size for every variant.
func TestTimesScaleWithN(t *testing.T) {
	for _, a := range mlmsort.Algorithms() {
		prev := 0.0
		for _, n := range []int64{2_000_000_000, 4_000_000_000, 6_000_000_000} {
			tt := Simulate(a, PaperSortConfig(n, workload.Random)).Time.Seconds()
			if tt <= prev {
				t.Errorf("%v: time %v at n=%d not greater than %v", a, tt, n, prev)
			}
			prev = tt
		}
	}
}

func TestRepeatedNoiseModel(t *testing.T) {
	c := PaperSortConfig(2_000_000_000, workload.Random)
	s := Repeated(mlmsort.GNUFlat, c, 10, 1)
	if s.N != 10 {
		t.Fatalf("N = %d", s.N)
	}
	if s.StdDev <= 0 {
		t.Error("expected nonzero run-to-run noise")
	}
	if s.StdDev/s.Mean > 0.1 {
		t.Errorf("noise %.4f implausibly large", s.StdDev/s.Mean)
	}
	// Determinism in seed.
	s2 := Repeated(mlmsort.GNUFlat, c, 10, 1)
	if s.Mean != s2.Mean || s.StdDev != s2.StdDev {
		t.Error("Repeated not deterministic in seed")
	}
	// MLM variants are steadier than GNU, as in Table 1.
	gnu := Repeated(mlmsort.GNUFlat, c, 10, 2)
	mlm := Repeated(mlmsort.MLMSort, c, 10, 2)
	if mlm.StdDev/mlm.Mean >= gnu.StdDev/gnu.Mean {
		t.Error("MLM noise should be below GNU noise")
	}
}

func TestRepeatedPanicsOnZeroRuns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero runs should panic")
		}
	}()
	Repeated(mlmsort.GNUFlat, PaperSortConfig(1e9, workload.Random), 0, 1)
}
