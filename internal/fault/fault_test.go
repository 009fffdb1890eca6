package fault

import (
	"errors"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

// doubler builds the canonical staged test pipeline.
func doubler(src, dst []int64, chunkLen int) exec.Stages {
	n := len(src)
	bounds := func(i int) (int, int) {
		lo := i * chunkLen
		hi := lo + chunkLen
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	return exec.Stages{
		NumChunks: (n + chunkLen - 1) / chunkLen,
		ChunkLen: func(i int) int {
			lo, hi := bounds(i)
			return hi - lo
		},
		CopyIn: func(i int, buf []int64) error {
			lo, hi := bounds(i)
			copy(buf, src[lo:hi])
			return nil
		},
		Compute: func(i int, buf []int64) error {
			for j := range buf {
				buf[j] *= 2
			}
			return nil
		},
		CopyOut: func(i int, buf []int64) error {
			lo, hi := bounds(i)
			copy(dst[lo:hi], buf)
			return nil
		},
	}
}

// TestDeterministicDecisions: the same seed must produce the same
// injection schedule when the sites are visited in the same per-site
// order — regardless of wall time or allocation addresses.
func TestDeterministicDecisions(t *testing.T) {
	specs := []Spec{
		{Stage: exec.StageCopyIn, Kind: Error, Rate: 0.3},
		{Stage: exec.StageCompute, Kind: Error, Rate: 0.5},
	}
	run := func() []bool {
		in := MustNewInjector(99, specs...)
		var out []bool
		for chunk := 0; chunk < 50; chunk++ {
			for attempt := 0; attempt < 3; attempt++ {
				_, _, fail := in.decide(exec.StageCopyIn, chunk)
				out = append(out, fail)
				_, _, fail = in.decide(exec.StageCompute, chunk)
				out = append(out, fail)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// And a different seed must (overwhelmingly) differ somewhere.
	in2 := MustNewInjector(100, specs...)
	diverged := false
	for chunk := 0; chunk < 50 && !diverged; chunk++ {
		_, _, f1 := MustNewInjector(99, specs...).decide(exec.StageCopyIn, chunk)
		_, _, f2 := in2.decide(exec.StageCopyIn, chunk)
		if f1 != f2 {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 99 and 100 produced identical schedules across 50 chunks")
	}
}

// TestTargetedChunks: a chunk-targeted rate-1 spec fires on exactly its
// chunks.
func TestTargetedChunks(t *testing.T) {
	in := MustNewInjector(1, Spec{Stage: exec.StageCompute, Kind: Error, Rate: 1, Chunks: []int{2, 5}})
	for chunk := 0; chunk < 8; chunk++ {
		_, _, fail := in.decide(exec.StageCompute, chunk)
		want := chunk == 2 || chunk == 5
		if fail != want {
			t.Errorf("chunk %d: fired=%v, want %v", chunk, fail, want)
		}
	}
}

// TestPerChunkCap: a rate-1 spec with PerChunkHits=2 fires exactly twice
// per site and then goes quiet.
func TestPerChunkCap(t *testing.T) {
	in := MustNewInjector(7, Spec{Stage: exec.StageCopyIn, Kind: Error, Rate: 1, PerChunkHits: 2})
	for attempt := 0; attempt < 5; attempt++ {
		_, _, fail := in.decide(exec.StageCopyIn, 0)
		if want := attempt < 2; fail != want {
			t.Errorf("attempt %d: fired=%v, want %v", attempt, fail, want)
		}
	}
	// Another chunk gets its own budget.
	if _, _, fail := in.decide(exec.StageCopyIn, 1); !fail {
		t.Error("chunk 1 should have a fresh per-chunk budget")
	}
}

// TestMaxHitsCap: the global cap bounds total injections.
func TestMaxHitsCap(t *testing.T) {
	in := MustNewInjector(3, Spec{Stage: exec.StageCompute, Kind: Error, Rate: 1, MaxHits: 3})
	fired := 0
	for chunk := 0; chunk < 10; chunk++ {
		if _, _, fail := in.decide(exec.StageCompute, chunk); fail {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("fired %d times, want 3 (MaxHits)", fired)
	}
}

// TestWrapTransientFaultsSurvivable: a pipeline wrapped with bounded
// error+panic+latency faults and a sufficient retry budget must still
// produce exactly the right output, and the injector must have actually
// fired.
func TestWrapTransientFaultsSurvivable(t *testing.T) {
	src := workload.Generate(workload.Random, 20_000, 5)
	dst := make([]int64, len(src))
	in := MustNewInjector(42,
		Spec{Stage: exec.StageCopyIn, Kind: Error, Rate: 0.4, PerChunkHits: 2},
		Spec{Stage: exec.StageCompute, Kind: Panic, Rate: 0.3, PerChunkHits: 1},
		Spec{Stage: exec.StageCopyOut, Kind: Error, Rate: 0.4, PerChunkHits: 2},
		Spec{Stage: exec.StageCompute, Kind: Latency, Rate: 0.3, Latency: 200 * time.Microsecond, PerChunkHits: 1},
	)
	s := in.Wrap(doubler(src, dst, 1000))
	s.Retry = exec.RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}
	if err := exec.Run(s, 3); err != nil {
		t.Fatalf("survivable fault mix aborted the pipeline: %v (%v)", err, in)
	}
	for i := range src {
		if dst[i] != 2*src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], 2*src[i])
		}
	}
	c := in.Counts()
	if c[Error] == 0 || c[Panic] == 0 || c[Latency] == 0 {
		t.Errorf("expected every fault kind to fire at least once: %v", in)
	}
}

// TestInjectedErrorSurfaces: with no retry budget, the injected error is
// what RunContext's ChunkError wraps.
func TestInjectedErrorSurfaces(t *testing.T) {
	src := workload.Generate(workload.Random, 2_000, 9)
	dst := make([]int64, len(src))
	in := MustNewInjector(1, Spec{Stage: exec.StageCompute, Kind: Error, Rate: 1, Chunks: []int{1}})
	err := exec.Run(in.Wrap(doubler(src, dst, 500)), 3)
	var ie *InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want InjectedError", err)
	}
	if ie.Stage != exec.StageCompute || ie.Chunk != 1 {
		t.Errorf("injected at %v chunk %d, want compute chunk 1", ie.Stage, ie.Chunk)
	}
}

// TestInjectedPanicRecovered: an injected panic comes back as an
// exec.PanicError holding the PanicValue.
func TestInjectedPanicRecovered(t *testing.T) {
	src := workload.Generate(workload.Random, 1_000, 11)
	dst := make([]int64, len(src))
	in := MustNewInjector(1, Spec{Stage: exec.StageCopyOut, Kind: Panic, Rate: 1, Chunks: []int{0}})
	err := exec.Run(in.Wrap(doubler(src, dst, 250)), 3)
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pv, ok := pe.Value.(PanicValue); !ok || pv.Stage != exec.StageCopyOut {
		t.Errorf("panic value = %#v, want PanicValue at copy-out", pe.Value)
	}
}

// TestMetricsForwarding: injections land in the telemetry resilience
// counters.
func TestMetricsForwarding(t *testing.T) {
	reg := telemetry.NewRegistry()
	res := telemetry.NewResilience(reg)
	in := MustNewInjector(5, Spec{Stage: exec.StageCopyIn, Kind: Error, Rate: 1, MaxHits: 4})
	in.Metrics = res
	for chunk := 0; chunk < 6; chunk++ {
		_ = in.hit(exec.StageCopyIn, chunk)
	}
	if got := res.FaultsInjected(); got != 4 {
		t.Errorf("telemetry faults = %d, want 4", got)
	}
	if got := in.Counts()[Error]; got != 4 {
		t.Errorf("injector tally = %d, want 4", got)
	}
}

// TestSpecValidation rejects malformed specs.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Kind: Error, Rate: -0.1},
		{Kind: Error, Rate: 1.1},
		{Kind: Kind(99), Rate: 0.5},
		{Kind: Latency, Rate: 0.5},                        // zero duration
		{Kind: Latency, Rate: 0.5, Latency: -time.Second}, // negative
		{Kind: Error, Rate: 0.5, MaxHits: -1},             // negative cap
	}
	for i, s := range bad {
		if _, err := NewInjector(1, s); err == nil {
			t.Errorf("spec %d (%+v) should be rejected", i, s)
		}
	}
}

// TestPlanSurvivableByConstruction: plans across many seeds keep every
// failure spec's per-chunk budget within the retry budget.
func TestPlanSurvivableByConstruction(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := NewPlan(seed, 1<<20)
		budget := map[exec.Stage]int{}
		for _, s := range p.Specs {
			if s.Kind == Error || s.Kind == Panic {
				if s.PerChunkHits == 0 {
					t.Fatalf("seed %d: uncapped failure spec %+v", seed, s)
				}
				budget[s.Stage] += s.PerChunkHits
			}
		}
		for stage, b := range budget {
			if b >= p.Retry.MaxAttempts {
				t.Fatalf("seed %d: stage %v worst case %d failures >= %d attempts",
					seed, stage, b, p.Retry.MaxAttempts)
			}
		}
		// Compute retries re-stage through the wrapped CopyIn, so a
		// compute site can additionally consume copy-in injections: the
		// combined budget must also stay within the attempt budget.
		if sum := budget[exec.StageCopyIn] + budget[exec.StageCompute]; sum >= p.Retry.MaxAttempts {
			t.Fatalf("seed %d: copy-in+compute worst case %d failures >= %d attempts",
				seed, sum, p.Retry.MaxAttempts)
		}
	}
}
