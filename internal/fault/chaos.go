package fault

import (
	"fmt"
	"math/rand"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
)

// Plan is one chaos scenario: a fault mix plus the resilience knobs that
// make it survivable. Plans built by NewPlan are survivable *by
// construction*: every failure spec's per-chunk budget is bounded so the
// summed worst-case failures at any (stage, chunk) stay below the retry
// budget, and an MCDRAM refusal only sends a buffer to an unpooled DDR
// allocation, never aborts. A chaos run that does not end in correctly sorted
// output is therefore a real bug, not an unlucky roll.
type Plan struct {
	Seed  int64
	Specs []Spec
	Retry exec.RetryPolicy
	// HBWCapacity is the MCDRAM budget of the run's staging pool
	// (Rig.Pool). Plans pick it to sometimes be smaller than the run's
	// staging buffers and sort scratch, so refusals send some of them to
	// DDR.
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
	// Spill-tier IO faults: one write failure per run stays under the
	// copy-out retry budget (a retried copy-out re-creates the run file),
	// and two read failures per run stay under the merge fill workers'
	// five-attempt budget. Pipelines without a spill tier never consult
	// these specs.
	specs = append(specs,
		Spec{Stage: exec.StageCopyOut, Kind: IOFail, Rate: 0.10 + 0.25*rng.Float64(), PerChunkHits: 1},
		Spec{Stage: exec.StageCopyIn, Kind: IOFail, Rate: 0.10 + 0.25*rng.Float64(), PerChunkHits: 2},
	)

	// Pool budget between half and twice the dataset: small draws make
	// the pool refuse.
	capScale := 0.5 + 1.5*rng.Float64()
	return Plan{
		Seed:        seed,
		Specs:       specs,
		Retry:       retry,
		HBWCapacity: units.Bytes(capScale * float64(dataBytes)),
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
	// Policy is the plan's retry budget with the injector's Wrap: hand it
	// to a RealOptions or sched.Config whole.
	exec.Policy
	// Pool is a fresh staging pool capped at the plan's MCDRAM capacity:
	// hand it to mlmsort.RealOptions.Pool. A Get past the cap is refused
	// (Stats().Refusals) and the buffer is allocated unpooled, in DDR, as
	// under the scheduler's budget pool.
	Pool *mem.SlicePool
}

// Rig builds the plan's rig. Injections are counted into res
// (faults_injected_total), which the caller also gives its run as the
// Resilience sink so retries land beside them.
func (p Plan) Rig(res *telemetry.Resilience) Rig {
	inj := MustNewInjector(p.Seed, p.Specs...)
	inj.Metrics = res
	return Rig{
		Injector: inj,
		Policy:   exec.Policy{Retry: p.Retry, Wrap: inj.Wrap},
		Pool:     mem.NewSlicePoolBudget(int64(p.HBWCapacity)),
	}
}

// String summarizes the plan.
func (p Plan) String() string {
	return fmt.Sprintf("chaos plan seed=%d specs=%d retry=%d hbw=%v",
		p.Seed, len(p.Specs), p.Retry.MaxAttempts, p.HBWCapacity)
}
