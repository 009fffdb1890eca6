package mergebench

import (
	"context"
	"testing"

	"knlmlm/internal/exec"
	"knlmlm/internal/knl"
	"knlmlm/internal/mem"
	"knlmlm/internal/model"
	"knlmlm/internal/report"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

func machine() *knl.Machine {
	return knl.MustNew(knl.PaperConfig(mem.Flat))
}

func TestPaperConfigShape(t *testing.T) {
	c := PaperConfig(4, 8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Repeats != 4 || c.CopyThreads != 8 || c.TotalThreads != 256 {
		t.Errorf("config = %+v", c)
	}
	if c.ComputeThreads() != 240 {
		t.Errorf("compute threads = %d, want 240", c.ComputeThreads())
	}
	// Three buffers of this chunk size must fit in MCDRAM, and the chunk
	// count must be large enough that pipeline edges are negligible (the
	// model's stated assumption).
	if 3*c.ChunkBytes > 16*units.GiB {
		t.Errorf("3 x %v exceeds MCDRAM", c.ChunkBytes)
	}
	if n := int(c.DataBytes / c.ChunkBytes); n < 20 {
		t.Errorf("only %d chunks; the model assumes many", n)
	}
}

func TestValidateRejections(t *testing.T) {
	base := PaperConfig(1, 8)
	muts := []func(*Config){
		func(c *Config) { c.DataBytes = 0 },
		func(c *Config) { c.ChunkBytes = 0 },
		func(c *Config) { c.Repeats = 0 },
		func(c *Config) { c.CopyThreads = 0 },
		func(c *Config) { c.CopyThreads = 128 }, // no compute threads left
		func(c *Config) { c.SCopy = 0 },
		func(c *Config) { c.SComp = 0 },
	}
	for i, m := range muts {
		c := base
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Copy-dominated regime (repeats=1): more copy threads help. This is the
// left edge of the paper's Figure 8b.
func TestSimulateCopyDominatedScaling(t *testing.T) {
	t1 := Simulate(machine(), PaperConfig(1, 1)).Time
	t8 := Simulate(machine(), PaperConfig(1, 8)).Time
	t16 := Simulate(machine(), PaperConfig(1, 16)).Time
	if !(t8 < t1) {
		t.Errorf("8 copy threads (%v) should beat 1 (%v)", t8, t1)
	}
	if t16 > t8*1.05 {
		t.Errorf("16 copy threads (%v) should be near 8 (%v): DDR saturated", t16, t8)
	}
}

// Compute-dominated regime (repeats=64): copy threads stop mattering and
// taking threads away from compute hurts. Right edge of Figure 8b.
func TestSimulateComputeDominatedScaling(t *testing.T) {
	t1 := Simulate(machine(), PaperConfig(64, 1)).Time
	t32 := Simulate(machine(), PaperConfig(64, 32)).Time
	if t32 < t1 {
		t.Errorf("at 64 repeats, 32 copy threads (%v) should not beat 1 (%v)", t32, t1)
	}
}

// Monotonicity in repeats: more compute work never reduces the time, and
// the run is strictly slower once compute dominates. (In the copy-bound
// plateau the time is flat in repeats — Eq. 1's max.)
func TestSimulateMonotoneInRepeats(t *testing.T) {
	first := Simulate(machine(), PaperConfig(1, 8)).Time
	prev := units.Time(0)
	for _, r := range []int{1, 2, 4, 8, 16, 32, 64} {
		got := Simulate(machine(), PaperConfig(r, 8)).Time
		if got < prev {
			t.Errorf("repeats=%d time %v less than %v", r, got, prev)
		}
		prev = got
	}
	if prev <= first {
		t.Errorf("64 repeats (%v) should be strictly slower than 1 (%v)", prev, first)
	}
}

// The simulated optimal copy-thread count must be non-increasing in
// repeats — the paper's Table 3 empirical column shape.
func TestOptimalCopyThreadsMonotone(t *testing.T) {
	repeats := []int{1, 2, 4, 8, 16, 32, 64}
	copies := []int{1, 2, 4, 8, 16, 32}
	opt := OptimalCopyThreads(machine(), repeats, copies)
	for i := 1; i < len(opt); i++ {
		if opt[i] > opt[i-1] {
			t.Errorf("optimal copy threads increased: %v", opt)
		}
	}
	if opt[0] < 8 {
		t.Errorf("repeats=1 optimum %d, want >= 8 (DDR saturation region)", opt[0])
	}
	if opt[len(opt)-1] > 2 {
		t.Errorf("repeats=64 optimum %d, want <= 2", opt[len(opt)-1])
	}
}

// The model and the simulation must agree on which regime dominates, and
// roughly on magnitude in the deeply copy-bound regime where pipeline
// transients are negligible.
func TestSimulationAgreesWithModelCopyBound(t *testing.T) {
	c := PaperConfig(1, 10)
	simT := Simulate(machine(), c).Time
	pools := model.Pools{In: c.CopyThreads, Out: c.CopyThreads, Comp: c.ComputeThreads()}
	pred := c.ModelParams(machine()).Evaluate(pools, float64(c.Repeats))
	rel := (float64(simT) - float64(pred.TTotal)) / float64(pred.TTotal)
	if rel < -0.02 || rel > 0.35 {
		t.Errorf("sim %v vs model %v: rel diff %.3f outside [-0.02, 0.35]", simT, pred.TTotal, rel)
	}
}

func TestSimulateAsyncNotSlowerThanBarrier(t *testing.T) {
	for _, r := range []int{1, 8, 64} {
		c := PaperConfig(r, 8)
		bar := Simulate(machine(), c).Time
		asy := SimulateAsync(machine(), c, 3).Time
		if float64(asy) > float64(bar)*(1+1e-9) {
			t.Errorf("repeats=%d: async %v slower than barrier %v", r, asy, bar)
		}
	}
}

func TestSweepShape(t *testing.T) {
	res := Sweep(machine(), []int{1, 4}, []int{1, 2, 4})
	if len(res) != 2 || len(res[0]) != 3 {
		t.Fatalf("sweep shape = %dx%d", len(res), len(res[0]))
	}
	for _, row := range res {
		for _, r := range row {
			if r.Time <= 0 {
				t.Error("non-positive simulated time")
			}
			if r.Trace == nil {
				t.Error("missing trace")
			}
		}
	}
}

func TestSimulateInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config should panic")
		}
	}()
	Simulate(machine(), Config{})
}

// runReal is the plain benchmark: the one real run, with no options.
func runReal(src []int64, chunkLen, repeats, buffers int) ([]int64, error) {
	out, err := RunRealResilient(context.Background(), src, chunkLen, repeats, buffers, RealOptions{})
	return out, err
}

func TestRunRealCorrectness(t *testing.T) {
	for _, repeats := range []int{1, 3} {
		for _, o := range []workload.Order{workload.Random, workload.Reverse} {
			src := workload.Generate(o, 10_000, 5)
			orig := append([]int64(nil), src...)
			out, err := runReal(src, 1000, repeats, 3)
			if err != nil {
				t.Fatal(err)
			}
			// Each chunk of the output is sorted (halves sorted then merged)
			// and the whole output is a permutation of the input.
			for c := 0; c < 10; c++ {
				if !workload.IsSorted(out[c*1000 : (c+1)*1000]) {
					t.Errorf("order=%v repeats=%d: chunk %d not sorted", o, repeats, c)
				}
			}
			if workload.Fingerprint(out) != workload.Fingerprint(orig) {
				t.Errorf("order=%v: output not a permutation", o)
			}
		}
	}
}

func TestRunRealShortTail(t *testing.T) {
	src := workload.Generate(workload.Random, 1037, 5)
	out, err := runReal(src, 100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if workload.Fingerprint(out) != workload.Fingerprint(src) {
		t.Error("tail chunk mishandled")
	}
}

func TestRunRealErrors(t *testing.T) {
	src := []int64{1, 2, 3}
	if _, err := runReal(src, 1, 1, 3); err == nil {
		t.Error("chunkLen < 2 should error")
	}
	if _, err := runReal(src, 2, 0, 3); err == nil {
		t.Error("repeats < 1 should error")
	}
}

// TestRunRealObservedTelemetry: the observed pipeline must record every
// chunk in every stage with byte totals matching the staged payload, and
// with a genuinely pipelined (triple-buffered) schedule driving the
// occupancy analyzer.
func TestRunRealObservedTelemetry(t *testing.T) {
	const n, chunkLen, repeats = 40_000, 4_096, 2
	src := workload.Generate(workload.Random, n, 11)
	rec := telemetry.NewRecorder()
	out, err := RunRealResilient(context.Background(), src, chunkLen, repeats, 3, RealOptions{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if workload.Fingerprint(out) != workload.Fingerprint(src) {
		t.Fatal("output not a permutation")
	}
	numChunks := (n + chunkLen - 1) / chunkLen
	a := report.Analyze(rec.Spans())
	if a.Chunks != numChunks {
		t.Errorf("analyzer saw %d chunks, want %d", a.Chunks, numChunks)
	}
	bytes := rec.BytesByStage()
	if want := int64(n) * 8; bytes[exec.StageCopyIn] != want || bytes[exec.StageCopyOut] != want {
		t.Errorf("staged bytes = %d in / %d out, want %d each",
			bytes[exec.StageCopyIn], bytes[exec.StageCopyOut], want)
	}
	if want := int64(n) * 2 * repeats * 8; bytes[exec.StageCompute] != want {
		t.Errorf("compute bytes = %d, want %d", bytes[exec.StageCompute], want)
	}
}
