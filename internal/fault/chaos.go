package fault

import (
	"fmt"
	"math/rand"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/memkind"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
)

// Plan is one chaos scenario: a fault mix plus the resilience knobs that
// make it survivable. Plans built by NewPlan are survivable *by
// construction*: every failure spec's per-chunk budget is bounded so the
// summed worst-case failures at any (stage, chunk) stay below the retry
// budget, injected latency stays well under the chunk deadline, and
// allocation failures only ever trigger the DDR degradation path, never
// an abort. A chaos run that does not end in correctly sorted output is
// therefore a real bug, not an unlucky roll.
type Plan struct {
	Seed         int64
	Specs        []Spec
	Retry        exec.RetryPolicy
	ChunkTimeout time.Duration
	// HBWCapacity is the simulated MCDRAM capacity for the run's staging
	// heap. Plans pick it to sometimes be smaller than a megachunk, so
	// genuine (not just injected) exhaustion exercises the degradation
	// path.
	HBWCapacity units.Bytes
}

// NewPlan derives a randomized, survivable chaos plan from the seed for a
// pipeline processing dataBytes of input. The rand stream here only
// *builds* the plan; the injector's own decisions re-derive from the seed
// per site, so two runs of the same plan inject identically.
func NewPlan(seed int64, dataBytes units.Bytes) Plan {
	rng := rand.New(rand.NewSource(seed))
	retry := exec.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   200 * time.Microsecond,
		MaxDelay:    2 * time.Millisecond,
	}
	// Failure budget per (stage, chunk): one error and one panic per
	// stage. The binding worst case is a compute site: compute retries
	// re-stage through the wrapped CopyIn, so a compute attempt can also
	// consume copy-in injections — up to 2 (compute) + 2 (copy-in) = 4
	// failures against the five-attempt budget.
	var specs []Spec
	for _, stage := range []exec.Stage{exec.StageCopyIn, exec.StageCompute, exec.StageCopyOut} {
		specs = append(specs,
			Spec{Stage: stage, Kind: Error, Rate: 0.10 + 0.25*rng.Float64(), PerChunkHits: 1},
			Spec{Stage: stage, Kind: Panic, Rate: 0.05 + 0.15*rng.Float64(), PerChunkHits: 1},
			Spec{Stage: stage, Kind: Latency, Rate: 0.10 + 0.20*rng.Float64(),
				Latency: time.Duration(100+rng.Intn(400)) * time.Microsecond, PerChunkHits: 2},
		)
	}
	// Allocation exhaustion: injected on top of whatever genuine
	// exhaustion the undersized heap produces.
	specs = append(specs, Spec{Kind: AllocFail, Rate: 0.15 + 0.35*rng.Float64(), PerChunkHits: 1})
	// Spill-tier IO faults: one write failure per run stays under the
	// copy-out retry budget (a retried copy-out re-creates the run file),
	// and two read failures per run stay under the merge fill workers'
	// five-attempt budget. Pipelines without a spill tier never consult
	// these specs.
	specs = append(specs,
		Spec{Stage: exec.StageCopyOut, Kind: IOFail, Rate: 0.10 + 0.25*rng.Float64(), PerChunkHits: 1},
		Spec{Stage: exec.StageCopyIn, Kind: IOFail, Rate: 0.10 + 0.25*rng.Float64(), PerChunkHits: 2},
	)

	// Heap capacity between half a megachunk and 2x the dataset: small
	// draws force genuine HBW_POLICY_BIND failures.
	capScale := 0.5 + 1.5*rng.Float64()
	return Plan{
		Seed:         seed,
		Specs:        specs,
		Retry:        retry,
		ChunkTimeout: 2 * time.Second, // active, but far above injected latency
		HBWCapacity:  units.Bytes(capScale * float64(dataBytes)),
	}
}

// Rig is a plan made runnable, the same way for every surface that runs
// under chaos (cmd/chaos, mlmsort -chaos, mergebench -chaos, mlmserve
// -chaos and the in-test soaks): one injector, counted by one metrics
// sink, behind the two plug values the real pipelines take.
type Rig struct {
	// Injector makes every fault decision of the run. It is also the
	// spill tier's IO fault source (spill.IOFaults) and prints the tally.
	Injector *Injector
	// Policy is the plan's retry budget and chunk deadline with the
	// injector's Wrap: hand it to a RealOptions or sched.Config whole.
	exec.Policy
	// Staging is a fresh heap with the plan's MCDRAM capacity (DDR
	// effectively unbounded: only MCDRAM pressure is under test) under the
	// injector's allocation faults.
	memkind.Staging
}

// Rig builds the plan's rig. Injections are counted into res
// (faults_injected_total), which the caller also gives its run as the
// Resilience sink so retries and degradations land beside them.
func (p Plan) Rig(res *telemetry.Resilience) Rig {
	inj := MustNewInjector(p.Seed, p.Specs...)
	inj.Metrics = res
	return Rig{
		Injector: inj,
		Policy:   exec.Policy{Retry: p.Retry, ChunkTimeout: p.ChunkTimeout, Wrap: inj.Wrap},
		Staging:  memkind.Staging{Heap: memkind.NewHeap(p.HBWCapacity, 1<<42), Faults: inj},
	}
}

// String summarizes the plan.
func (p Plan) String() string {
	return fmt.Sprintf("chaos plan seed=%d specs=%d retry=%d hbw=%v timeout=%v",
		p.Seed, len(p.Specs), p.Retry.MaxAttempts, p.HBWCapacity, p.ChunkTimeout)
}
