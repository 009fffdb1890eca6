// Command chaos soaks the real execution stack under randomized injected
// faults. Each run derives a survivable-by-construction fault plan from
// its seed (stage errors, stage panics, added latency, and an MCDRAM
// staging pool whose budget may refuse buffers), executes a full MLM sort
// and/or the streaming merge benchmark under that plan, and verifies the
// output bit-for-bit. Because plans are survivable by construction and
// injection schedules are deterministic in the seed, any verification
// failure is a reproducible pipeline bug — rerun with the printed seed.
//
// Examples:
//
//	chaos -runs 5 -n 200000
//	chaos -seed 1337 -runs 1 -kind sort -v
//	chaos -runs 3 -kind merge -metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"knlmlm/internal/fault"
	"knlmlm/internal/mem"
	"knlmlm/internal/mergebench"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "base seed; run r uses seed+r")
	runs := flag.Int("runs", 5, "chaos runs per kind")
	n := flag.Int("n", 200_000, "elements per run")
	threads := flag.Int("threads", 4, "worker threads")
	kind := flag.String("kind", "both", "workload under chaos: sort, merge, or both")
	megachunk := flag.Int("megachunk", 0, "sort megachunk elements (0 = n/8)")
	chunkLen := flag.Int("chunklen", 4096, "merge benchmark chunk elements")
	repeats := flag.Int("repeats", 2, "merge benchmark compute repeats")
	buffers := flag.Int("buffers", 3, "staging buffers")
	verbose := flag.Bool("v", false, "print each run's plan and tally")
	metrics := flag.Bool("metrics", false, "print Prometheus metrics of the final run")
	flag.Parse()

	if *kind != "sort" && *kind != "merge" && *kind != "both" {
		fmt.Fprintf(os.Stderr, "chaos: unknown kind %q (want sort, merge, or both)\n", *kind)
		os.Exit(2)
	}
	mc := *megachunk
	if mc <= 0 {
		mc = *n / 8
	}

	start := time.Now()
	failures := 0
	var totalFaults, totalRetries, totalRefusals int64
	var lastReg *telemetry.Registry
	for r := 0; r < *runs; r++ {
		runSeed := *seed + int64(r)
		plan := fault.NewPlan(runSeed, units.BytesForElements(int64(*n)))
		if *kind == "sort" || *kind == "both" {
			if err := chaosSort(plan, *n, *threads, mc, *buffers, *verbose, &lastReg,
				&totalFaults, &totalRetries, &totalRefusals); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: FAIL sort seed=%d: %v\n", runSeed, err)
				failures++
			}
		}
		if *kind == "merge" || *kind == "both" {
			if err := chaosMerge(plan, *n, *chunkLen, *repeats, *buffers, *verbose, &lastReg,
				&totalFaults, &totalRetries, &totalRefusals); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: FAIL merge seed=%d: %v\n", runSeed, err)
				failures++
			}
		}
	}
	fmt.Printf("chaos: %d run(s), %d fault(s) injected, %d retr%s, %d MCDRAM refusal(s) in %v\n",
		*runs, totalFaults, totalRetries, plural(totalRetries, "y", "ies"), totalRefusals,
		time.Since(start).Round(time.Millisecond))
	if *metrics && lastReg != nil {
		fmt.Println()
		if err := lastReg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d verification failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("chaos: all outputs verified")
}

func plural(n int64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// rig binds one run's plan to a fresh metric sink and fault rig.
type rig struct {
	fault.Rig
	plan fault.Plan
	res  *telemetry.Resilience
}

func newRig(plan fault.Plan) *rig {
	res := telemetry.NewResilience(telemetry.NewRegistry())
	return &rig{Rig: plan.Rig(res), plan: plan, res: res}
}

// account folds the run's tallies into the totals and reports them.
func (g *rig) account(label string, faults, retries, refusals *int64, verbose bool) {
	*faults += g.Injector.Total()
	*retries += g.res.Retries()
	*refusals += g.Pool.Stats().Refusals
	if verbose {
		fmt.Printf("  %s %v: %v retries=%d\n", label, g.plan, g.Injector, g.res.Retries())
	}
}

func chaosSort(plan fault.Plan, n, threads, megachunk, buffers int, verbose bool,
	lastReg **telemetry.Registry, faults, retries, refusals *int64) error {
	g := newRig(plan)
	xs := workload.Generate(workload.Random, n, plan.Seed)
	fp := workload.Fingerprint(xs)
	stats, err := mlmsort.RunRealResilient(context.Background(), mlmsort.MLMSort, xs, threads, megachunk,
		mlmsort.RealOptions{Pool: g.Pool, Resilience: g.res, Policy: g.Policy, Buffers: buffers})
	g.account(fmt.Sprintf("sort  seed=%d stats=%+v refusals=%d", plan.Seed, stats, g.Pool.Stats().Refusals), faults, retries, refusals, verbose)
	*lastReg = g.res.Registry()
	if err != nil {
		return fmt.Errorf("survivable plan aborted: %w (%v)", err, g.Injector)
	}
	if !workload.IsSorted(xs) {
		return fmt.Errorf("output not sorted (%v)", g.Injector)
	}
	if workload.Fingerprint(xs) != fp {
		return fmt.Errorf("output is not a permutation of the input (%v)", g.Injector)
	}
	if held, free := g.Pool.FootprintBytes(), g.Pool.FreeBytes(); held != free {
		return fmt.Errorf("MCDRAM pool has %d of %d bytes outstanding", held-free, held)
	}
	return nil
}

func chaosMerge(plan fault.Plan, n, chunkLen, repeats, buffers int, verbose bool,
	lastReg **telemetry.Registry, faults, retries, refusals *int64) error {
	g := newRig(plan)
	src := workload.Generate(workload.Random, n, plan.Seed+1)
	out, err := mergebench.RunRealResilient(context.Background(), src, chunkLen, repeats, buffers,
		mergebench.RealOptions{Resilience: g.res, Policy: g.Policy})
	g.account(fmt.Sprintf("merge seed=%d", plan.Seed), faults, retries, refusals, verbose)
	*lastReg = g.res.Registry()
	if err != nil {
		return fmt.Errorf("survivable plan aborted: %w (%v)", err, g.Injector)
	}
	// Contract: every chunk of the output is its input chunk, sorted.
	for lo := 0; lo < n; lo += chunkLen {
		hi := lo + chunkLen
		if hi > n {
			hi = n
		}
		if !workload.IsSorted(out[lo:hi]) {
			return fmt.Errorf("chunk at %d not sorted (%v)", lo, g.Injector)
		}
		if workload.Fingerprint(out[lo:hi]) != workload.Fingerprint(src[lo:hi]) {
			return fmt.Errorf("chunk at %d is not a permutation of its input (%v)", lo, g.Injector)
		}
	}
	// The benchmark draws from the shared pool, quiescent between runs.
	if held, free := mem.Pool.FootprintBytes(), mem.Pool.FreeBytes(); held != free {
		return fmt.Errorf("shared pool has %d of %d bytes outstanding", held-free, held)
	}
	return nil
}
