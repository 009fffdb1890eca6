package fault

import (
	"context"
	"testing"

	"knlmlm/internal/mergebench"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// TestChaosSortSoak: full MLM sorts under randomized survivable plans
// must end correctly sorted with the staging heap drained — the in-test
// twin of cmd/chaos. Seeds are fixed, so a failure names a reproducible
// schedule.
func TestChaosSortSoak(t *testing.T) {
	const n, mc = 40_000, 5_000
	for seed := int64(1); seed <= 3; seed++ {
		plan := NewPlan(seed, units.BytesForElements(n))
		res := telemetry.NewResilience(telemetry.NewRegistry())
		rig := plan.Rig(res)
		inj, heap := rig.Injector, rig.Heap
		xs := workload.Generate(workload.Random, n, seed)
		fp := workload.Fingerprint(xs)
		stats, err := mlmsort.RunRealResilient(context.Background(), mlmsort.MLMSort, xs, 4, mc,
			mlmsort.RealOptions{Staging: rig.Staging, Resilience: res, Policy: rig.Policy, Buffers: 3})
		if err != nil {
			t.Fatalf("seed %d: survivable plan aborted: %v (%v)", seed, err, inj)
		}
		if !workload.IsSorted(xs) || workload.Fingerprint(xs) != fp {
			t.Fatalf("seed %d: output corrupted under %v (stats %+v)", seed, inj, stats)
		}
		if heap.HBWInUse() != 0 {
			t.Errorf("seed %d: staging heap leaked %v", seed, heap.HBWInUse())
		}
		if stats.Staged+stats.Degraded != stats.Megachunks {
			t.Errorf("seed %d: inconsistent stats %+v", seed, stats)
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
		inj, heap := rig.Injector, rig.Heap
		src := workload.Generate(workload.Random, n, seed+100)
		out, stats, err := mergebench.RunRealResilient(context.Background(), src, chunkLen, 2, 3,
			mergebench.RealOptions{Staging: rig.Staging, Resilience: res, Policy: rig.Policy})
		if err != nil {
			t.Fatalf("seed %d: survivable plan aborted: %v (%v)", seed, err, inj)
		}
		if stats.Buffers < 1 {
			t.Fatalf("seed %d: ran with no buffers? stats %+v", seed, stats)
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
		if heap.HBWInUse() != 0 || heap.DDRInUse() != 0 {
			t.Errorf("seed %d: placements leaked hbw=%v ddr=%v", seed, heap.HBWInUse(), heap.DDRInUse())
		}
	}
}
