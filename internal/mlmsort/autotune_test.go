package mlmsort

import (
	"context"
	"testing"

	"knlmlm/internal/fault"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// TestAutotuneReprovisions: with autotuning on, a staged run measures its
// warmup megachunk, solves the model, and applies exactly one
// re-provisioning — visible in the stats, the registry counter, and a
// still-sorted output.
func TestAutotuneReprovisions(t *testing.T) {
	const n, mc = 80_000, 10_000
	xs := workload.Generate(workload.Random, n, 11)
	want := workload.Fingerprint(xs)
	reg := telemetry.NewRegistry()
	stats, err := RunRealResilient(context.Background(), MLMSort, xs, 2, mc, RealOptions{
		Buffers:  3,
		Autotune: &AutotuneOptions{Registry: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) || workload.Fingerprint(xs) != want {
		t.Fatal("autotuned run corrupted the data")
	}
	if stats.Retunes != 1 {
		t.Fatalf("stats.Retunes = %d, want 1", stats.Retunes)
	}
	p := stats.TunedPools
	if p.In < 1 || p.Out < 1 || p.Comp < 1 {
		t.Errorf("tuned pools %+v have an empty pool", p)
	}
	if p.In != p.Out {
		t.Errorf("tuned pools %+v are not symmetric", p)
	}
	if total := p.In + p.Out + p.Comp; total != 4 {
		t.Errorf("tuned pools %+v spend %d threads, want the budget 4", p, total)
	}
	if v := reg.Counter("autotune_reprovisions_total", "", nil).Value(); v != 1 {
		t.Errorf("autotune_reprovisions_total = %d, want 1", v)
	}
}

// TestAutotuneIgnoredWithoutCopyPools: the in-place variants have no copy
// pools to re-provision; autotune must be a no-op, not a crash.
func TestAutotuneIgnoredWithoutCopyPools(t *testing.T) {
	const n, mc = 40_000, 10_000
	xs := workload.Generate(workload.Random, n, 13)
	stats, err := RunRealResilient(context.Background(), MLMDDr, xs, 2, mc, RealOptions{
		Autotune: &AutotuneOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) {
		t.Fatal("output not sorted")
	}
	if stats.Retunes != 0 {
		t.Errorf("unstaged variant retuned %d times, want 0", stats.Retunes)
	}
}

// TestAutotuneExplicitBudget: a caller-specified thread budget is
// respected by the solve.
func TestAutotuneExplicitBudget(t *testing.T) {
	const n, mc = 60_000, 10_000
	xs := workload.Generate(workload.Random, n, 17)
	stats, err := RunRealResilient(context.Background(), MLMHybrid, xs, 2, mc, RealOptions{
		Autotune: &AutotuneOptions{TotalThreads: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) {
		t.Fatal("output not sorted")
	}
	if stats.Retunes != 1 {
		t.Fatalf("stats.Retunes = %d, want 1", stats.Retunes)
	}
	p := stats.TunedPools
	if total := p.In + p.Out + p.Comp; total != 8 {
		t.Errorf("tuned pools %+v spend %d threads, want the budget 8", p, total)
	}
}

// TestAutotuneUnderChaos: re-provisioning mid-run while the chaos
// injector throws errors, panics and latency, under a possibly
// undersized staging pool, must never cost correctness.
func TestAutotuneUnderChaos(t *testing.T) {
	const n, mc = 60_000, 6_000
	for seed := int64(1); seed <= 8; seed++ {
		xs := workload.Generate(workload.Random, n, seed)
		want := workload.Fingerprint(xs)
		plan := fault.NewPlan(seed, units.BytesForElements(n))
		reg := telemetry.NewRegistry()
		res := telemetry.NewResilience(reg)
		rig := plan.Rig(res)
		stats, err := RunRealResilient(context.Background(), MLMSort, xs, 2, mc, RealOptions{
			Pool: rig.Pool, Resilience: res, Policy: rig.Policy, Buffers: 3,
			Autotune: &AutotuneOptions{Registry: reg},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !workload.IsSorted(xs) || workload.Fingerprint(xs) != want {
			t.Fatalf("seed %d: chaos+autotune corrupted the data (%+v)", seed, stats)
		}
		if stats.Retunes != 1 {
			t.Errorf("seed %d: retunes = %d, want 1", seed, stats.Retunes)
		}
	}
}
