package fault

import (
	"context"
	"testing"

	"knlmlm/internal/mem"
	"knlmlm/internal/mergebench"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// TestChaosSortSoak: full MLM sorts under randomized survivable plans
// must end correctly sorted with every staging buffer back in the rig's
// MCDRAM pool — the in-test twin of cmd/chaos. Seeds are fixed, so a
// failure names a reproducible schedule. The last case shrinks MCDRAM
// below one staging buffer, so the pool refuses under injected faults.
func TestChaosSortSoak(t *testing.T) {
	const n, mc = 40_000, 5_000
	for _, tc := range []struct {
		seed int64
		hbw  units.Bytes // 0 keeps the plan's draw; else below one staging buffer
	}{{seed: 1}, {seed: 2}, {seed: 3}, {seed: 4, hbw: units.BytesForElements(mc) - 1}} {
		seed := tc.seed
		plan := NewPlan(seed, units.BytesForElements(n))
		if tc.hbw > 0 {
			plan.HBWCapacity = tc.hbw
		}
		res := telemetry.NewResilience(telemetry.NewRegistry())
		rig := plan.Rig(res)
		inj := rig.Injector
		xs := workload.Generate(workload.Random, n, seed)
		fp := workload.Fingerprint(xs)
		stats, err := mlmsort.RunRealResilient(context.Background(), mlmsort.MLMSort, xs, 4, mc,
			mlmsort.RealOptions{Pool: rig.Pool, Resilience: res, Policy: rig.Policy, Buffers: 3})
		if err != nil {
			t.Fatalf("seed %d: survivable plan aborted: %v (%v)", seed, err, inj)
		}
		if !workload.IsSorted(xs) || workload.Fingerprint(xs) != fp {
			t.Fatalf("seed %d: output corrupted under %v (stats %+v)", seed, inj, stats)
		}
		if held, free := rig.Pool.FootprintBytes(), rig.Pool.FreeBytes(); held != free {
			t.Errorf("seed %d: MCDRAM pool holds %d bytes, %d free: a buffer is outstanding", seed, held, free)
		}
		if tc.hbw > 0 && rig.Pool.Stats().Refusals == 0 {
			t.Errorf("seed %d: %v of MCDRAM refused no staging buffer (%+v)", seed, plan.HBWCapacity, rig.Pool.Stats())
		}
		if inj.Total() == 0 {
			t.Errorf("seed %d: plan injected no fault", seed)
		}
	}
}

// TestChaosMergeSoak: the streaming merge benchmark under the same plans
// must produce per-chunk sorted permutations.
func TestChaosMergeSoak(t *testing.T) {
	const n, chunkLen = 24_000, 2_000
	for seed := int64(1); seed <= 3; seed++ {
		plan := NewPlan(seed, units.BytesForElements(n))
		res := telemetry.NewResilience(telemetry.NewRegistry())
		rig := plan.Rig(res)
		inj := rig.Injector
		src := workload.Generate(workload.Random, n, seed+100)
		out, err := mergebench.RunRealResilient(context.Background(), src, chunkLen, 2, 3,
			mergebench.RealOptions{Resilience: res, Policy: rig.Policy})
		if err != nil {
			t.Fatalf("seed %d: survivable plan aborted: %v (%v)", seed, err, inj)
		}
		for lo := 0; lo < n; lo += chunkLen {
			hi := lo + chunkLen
			if hi > n {
				hi = n
			}
			if !workload.IsSorted(out[lo:hi]) ||
				workload.Fingerprint(out[lo:hi]) != workload.Fingerprint(src[lo:hi]) {
				t.Fatalf("seed %d: chunk at %d corrupted under %v", seed, lo, inj)
			}
		}
		// The benchmark's buffers come from the shared pool, and no other
		// test of this package runs beside this one.
		if held, free := mem.Pool.FootprintBytes(), mem.Pool.FreeBytes(); held != free {
			t.Errorf("seed %d: shared pool has %d of %d bytes outstanding", seed, held-free, held)
		}
	}
}
