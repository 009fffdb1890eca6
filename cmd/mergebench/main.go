// Command mergebench runs the paper's Section 5 streaming merge benchmark
// on the simulated KNL: a chunked, triple-buffered pipeline whose compute
// stage is a repeated two-way merge.
//
// Examples:
//
//	mergebench                           # the full Figure 8b sweep
//	mergebench -repeats 8 -copy 4        # one configuration
//	mergebench -repeats 8 -copy 4 -async # event-driven schedule (extension)
//	mergebench -real -n 1000000          # execute the real data flow
//	mergebench -real -n 4000000 -repeats 4 -trace out.json -metrics
//	mergebench -chaos -chaos-seed 7 -n 400000 -metrics
//
// With -trace / -metrics the run is captured by the telemetry subsystem
// (Chrome trace-event JSON and Prometheus text format); real runs also
// print the occupancy/stall report and the Eq. 1–5 model-drift table.
// -cpuprofile/-memprofile write standard pprof profiles of the whole run.
//
// With -chaos (implies -real), the pipeline runs under a randomized,
// seeded fault plan — stage errors/panics/latency, staging-buffer
// allocation failures, an undersized MCDRAM — and prints the
// injection/retry/degradation tally; the faults_* and pipeline_*
// counters land in the same registry -metrics prints, so the flags
// compose exactly as in cmd/mlmsort.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"knlmlm/internal/fault"
	"knlmlm/internal/knl"
	"knlmlm/internal/mem"
	"knlmlm/internal/mergebench"
	"knlmlm/internal/model"
	"knlmlm/internal/prof"
	"knlmlm/internal/report"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

func main() {
	repeats := flag.Int("repeats", 0, "merge repeats (0 = sweep the paper grid)")
	copyThreads := flag.Int("copy", 0, "copy-in thread count (0 = sweep)")
	async := flag.Bool("async", false, "use the event-driven pipeline instead of the paper's barrier schedule")
	buffers := flag.Int("buffers", 3, "staging buffers for -async")
	real := flag.Bool("real", false, "execute the real data flow on the host")
	n := flag.Int("n", 1_000_000, "element count for -real")
	verbose := flag.Bool("v", false, "print the phase trace")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	metrics := flag.Bool("metrics", false, "print Prometheus-format metrics for the run")
	chaos := flag.Bool("chaos", false, "run the real pipeline under a randomized fault-injection plan (implies -real)")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos plan seed (with -chaos)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *chaos {
		*real = true
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "mergebench: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "mergebench: %v\n", err)
		}
	}()

	if *real {
		runReal(*n, max(1, *repeats), *buffers, *chaos, *chaosSeed, *tracePath, *metrics, fail)
		return
	}

	m := knl.MustNew(knl.PaperConfig(mem.Flat))
	if *repeats > 0 && *copyThreads > 0 {
		cfg := mergebench.PaperConfig(*repeats, *copyThreads)
		var res mergebench.Result
		if *async {
			res = mergebench.SimulateAsync(m, cfg, *buffers)
		} else {
			res = mergebench.Simulate(m, cfg)
		}
		fmt.Printf("repeats=%d copy=%d compute=%d: %.3fs\n",
			*repeats, *copyThreads, cfg.ComputeThreads(), res.Time.Seconds())
		if *verbose {
			fmt.Print(res.Trace.String())
		}
		emitSimTelemetry(m, cfg, res, *tracePath, *metrics, fail)
		return
	}
	if *tracePath != "" || *metrics {
		fmt.Fprintln(os.Stderr, "mergebench: -trace/-metrics need a single configuration (-repeats and -copy) or -real; ignoring for the sweep")
	}

	repeatsGrid := []int{1, 2, 4, 8, 16, 32, 64}
	copyGrid := []int{1, 2, 4, 8, 16, 32}
	res := mergebench.Sweep(m, repeatsGrid, copyGrid)
	fmt.Printf("%-8s", "repeats")
	for _, c := range copyGrid {
		fmt.Printf("  copy=%-5d", c)
	}
	fmt.Println("  best")
	for i, r := range repeatsGrid {
		fmt.Printf("%-8d", r)
		best := 0
		for j := range copyGrid {
			fmt.Printf("  %8.3fs", res[i][j].Time.Seconds())
			if res[i][j].Time < res[i][best].Time {
				best = j
			}
		}
		fmt.Printf("  %d\n", copyGrid[best])
	}
}

// runReal executes the host pipeline, optionally captured by telemetry
// and/or perturbed by a chaos plan. Every metric family the run emits —
// span-derived, faults_*, pipeline_* — shares one registry, so -chaos
// and -metrics compose.
func runReal(n, repeats, buffers int, chaos bool, chaosSeed int64, tracePath string, metrics bool, fail func(error)) {
	const chunkLen = 1 << 16
	xs := workload.Generate(workload.Random, n, 1)
	telemetryOn := tracePath != "" || metrics
	var rec *telemetry.Recorder
	if telemetryOn {
		rec = telemetry.NewRecorder()
	}
	reg := telemetry.NewRegistry()
	opts := mergebench.RealOptions{}
	if rec != nil {
		opts.Observer = rec
	}
	var inj *fault.Injector
	if chaos {
		plan := fault.NewPlan(chaosSeed, units.BytesForElements(int64(n)))
		opts.Resilience = telemetry.NewResilience(reg)
		rig := plan.Rig(opts.Resilience)
		inj, opts.Staging, opts.Policy = rig.Injector, rig.Staging, rig.Policy
		fmt.Println(plan)
	}
	start := time.Now()
	out, stats, err := mergebench.RunRealResilient(context.Background(), xs, chunkLen, repeats, buffers, opts)
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)
	fmt.Printf("real merge benchmark processed %d elements through %d-buffer staging in %v\n",
		len(out), stats.Buffers, wall)
	if chaos {
		fmt.Printf("chaos: %v; retries=%d degradations=%d (%d hbw, %d degraded, %d dropped buffers)\n",
			inj, opts.Resilience.Retries(), opts.Resilience.Degradations(),
			stats.HBWBuffers, stats.DegradedBuffers, stats.DroppedBuffers)
	}
	if !telemetryOn {
		return
	}

	spans := rec.Spans()
	a := report.Publish(reg, spans)

	// File artifacts land before any further stdout writing: if stdout is
	// a pipe truncated early (e.g. | head), the process dies on the next
	// print and the files must already exist.
	if tracePath != "" {
		var ct telemetry.ChromeTrace
		ct.AddProcessName(1, "merge benchmark (real)")
		ct.AddSpans(1, spans)
		if err := ct.WriteFile(tracePath); err != nil {
			fail(err)
		}
	}

	fmt.Println()
	fmt.Print(a.StallReport().ASCII())
	// The real pipeline runs one goroutine per stage, so the model sees
	// pools {1, 1, 1} with `repeats` passes over B = the array's bytes.
	p := model.PaperTable2()
	p.BCopy = units.BytesForElements(int64(n))
	pred := p.Evaluate(model.Pools{In: 1, Out: 1, Comp: 1}, float64(repeats))
	fmt.Println()
	fmt.Print(a.ModelDriftReport(pred).ASCII())
	if tracePath != "" {
		fmt.Printf("\nwrote Chrome trace (%d spans) to %s\n", len(spans), tracePath)
	}
	if metrics {
		fmt.Println()
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fail(err)
		}
	}
}

// emitSimTelemetry exports a single simulated configuration: bridged
// Chrome trace, metrics over the simulation clock, and the simulated-vs-model
// drift table (Table 3's comparison for one cell).
func emitSimTelemetry(m *knl.Machine, cfg mergebench.Config, res mergebench.Result, tracePath string, metrics bool, fail func(error)) {
	if tracePath == "" && !metrics {
		return
	}
	reg := telemetry.NewRegistry()
	a := report.Publish(reg, report.SimSpans(res.Trace))

	// File artifacts before stdout reporting, as in runReal.
	if tracePath != "" {
		var ct telemetry.ChromeTrace
		ct.AddProcessName(1, "merge benchmark (simulated)")
		report.AddSimTrace(&ct, 1, res.Trace)
		if err := ct.WriteFile(tracePath); err != nil {
			fail(err)
		}
	}

	pred := cfg.ModelParams(m).Evaluate(
		model.SymmetricPools(cfg.CopyThreads, cfg.TotalThreads), float64(cfg.Repeats))
	fmt.Println()
	fmt.Print(a.ModelDriftReport(pred).ASCII())
	if tracePath != "" {
		fmt.Printf("\nwrote simulated Chrome trace to %s\n", tracePath)
	}
	if metrics {
		fmt.Println()
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fail(err)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
