// Command mlmsort runs one sort configuration, either on the simulated KNL
// (default; paper-scale sizes allowed) or for real on host data (-real;
// use modest sizes).
//
// Examples:
//
//	mlmsort -alg MLM-sort -n 2000000000 -order random
//	mlmsort -alg MLM-implicit -n 6000000000 -order reverse -chunk 1500000000
//	mlmsort -real -alg MLM-sort -n 1000000 -threads 8
//	mlmsort -real -alg MLM-sort -n 4000000 -trace out.json -metrics
//	mlmsort -real -alg MLM-sort -n 4000000 -autotune -cpuprofile cpu.pprof
//	mlmsort -chaos -chaos-seed 7 -n 400000 -threads 4
//	mlmsort -spill -n 4000000 -threads 8 -spill-budget-mb 64
//
// With -spill, the real run sorts out-of-core through all three levels:
// sorted megachunk runs are written to disk (under -spill-dir, capped at
// -spill-budget-mb) instead of accumulating in DDR, and a final k-way
// streaming merge, fed by one run-file fill at a time, produces the
// output. The run also measures and reports the spill directory's
// sequential disk bandwidth (tune.MeasureDiskRate). -spill composes with
// -chaos (run-file write/read faults join the plan) and -metrics
// (spill_* families).
//
// With -chaos, the real run executes under a randomized, seeded fault
// plan (stage errors/panics/latency, MCDRAM allocation failures, an
// undersized staging heap) and prints the injection/retry/degradation
// tally; see cmd/chaos for the multi-seed soak harness.
//
// With -autotune, a staged real run measures per-thread copy and compute
// rates over its first megachunks, re-solves the Eq. 1–5 copy/compute
// split with the measured rates, and re-provisions the pipeline mid-run.
// -cpuprofile/-memprofile write standard pprof profiles of the whole run.
//
// With -trace and/or -metrics, the run is captured by the telemetry
// subsystem: -trace writes a Chrome trace-event JSON (open in Perfetto or
// chrome://tracing), -metrics prints Prometheus-format metrics, and real
// runs additionally print the occupancy/stall report and the measured-vs-
// model (Section 3.2, Eq. 1–5) drift table.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"knlmlm/internal/fault"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/model"
	"knlmlm/internal/prof"
	"knlmlm/internal/spill"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/tune"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

func parseAlg(s string) (mlmsort.Algorithm, error) {
	for _, a := range append(mlmsort.Algorithms(), mlmsort.BasicChunked) {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

// driftPrediction maps the real run onto the Section 3.2 model: Table 2
// rates, B = the array's bytes, one copy-in and one copy-out stream (the
// staged variants copy serially on the driver), threads computing, one
// pass. Absolute seconds model a KNL, not this host — the drift report's
// scale-free rows are the meaningful comparison.
func driftPrediction(n int64, threads int) model.Prediction {
	p := model.PaperTable2()
	p.BCopy = units.BytesForElements(n)
	return p.Evaluate(model.Pools{In: 1, Out: 1, Comp: threads}, 1)
}

func main() {
	algName := flag.String("alg", "MLM-sort", "algorithm: GNU-flat, GNU-cache, MLM-ddr, MLM-sort, MLM-implicit, Basic-chunked")
	n := flag.Int64("n", 2_000_000_000, "element count")
	orderName := flag.String("order", "random", "input order (random, reverse, sorted, nearly-sorted, organ-pipe, few-unique)")
	threads := flag.Int("threads", 256, "thread budget")
	chunk := flag.Int64("chunk", 0, "megachunk elements (0 = paper default)")
	real := flag.Bool("real", false, "execute the real data flow on the host instead of simulating")
	repeats := flag.Int("runs", 1, "simulated repetitions (with the run-to-run noise model)")
	verbose := flag.Bool("v", false, "print the phase trace")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	metrics := flag.Bool("metrics", false, "print Prometheus-format metrics for the run")
	chaos := flag.Bool("chaos", false, "run the real sort under a randomized fault-injection plan (implies -real)")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos plan seed (with -chaos)")
	autotune := flag.Bool("autotune", false, "re-provision copy/compute widths mid-run from measured rates (staged variants, with -real)")
	tuneThreads := flag.Int("tune-threads", 0, "thread budget for -autotune (0 = threads+2, the run's initial split)")
	spillFlag := flag.Bool("spill", false, "sort out-of-core: spill sorted runs to disk, k-way merge them back (implies -real)")
	spillDir := flag.String("spill-dir", "", "parent directory for spill run files (with -spill; empty = OS temp dir)")
	spillBudgetMB := flag.Int64("spill-budget-mb", 0, "disk budget for run files in MiB (with -spill; 0 = uncapped)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *chaos || *spillFlag {
		*real = true
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "mlmsort: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "mlmsort: %v\n", err)
		}
	}()

	alg, err := parseAlg(*algName)
	if err != nil {
		fail(err)
	}
	order, err := workload.ParseOrder(*orderName)
	if err != nil {
		fail(err)
	}
	telemetryOn := *tracePath != "" || *metrics

	if *real {
		if *n > 1<<28 {
			fail(fmt.Errorf("real mode sorts host data; use -n <= %d", 1<<28))
		}
		xs := workload.Generate(order, int(*n), 1)
		var rec *telemetry.Recorder
		if telemetryOn {
			rec = telemetry.NewRecorder()
		}
		var opts mlmsort.RealOptions
		if rec != nil {
			opts.Observer = rec
		}
		// One registry for every family the run emits — autotune_*,
		// faults_*/pipeline_*, and the span-derived metrics — so the
		// -autotune, -chaos, and -metrics flags compose: a single scrape
		// sees all of them side by side.
		reg := telemetry.NewRegistry()
		inj, res, plan := wireReal(&opts, reg, *autotune, *tuneThreads, *chaos, *chaosSeed, *n)
		if *chaos {
			fmt.Println(plan)
		}
		var (
			stats  mlmsort.RealStats
			xstats mlmsort.ExternalStats
			dr     tune.DiskRate
		)
		start := time.Now()
		if *spillFlag {
			xopts := mlmsort.ExternalOptions{
				RealOptions: opts,
				SpillDir:    *spillDir,
				DiskBudget:  *spillBudgetMB << 20,
				Registry:    reg,
				ReadAhead:   1,
			}
			dr, err = tune.MeasureDiskRate(*spillDir, 8<<20)
			if err != nil {
				fail(err)
			}
			dr.Publish(reg)
			if *chaos && inj != nil {
				// A chaos run owns its store so the plan's run-file
				// write/read faults reach the spill tier.
				st, serr := spill.NewStore(spill.Config{
					Dir:      *spillDir,
					MaxBytes: xopts.DiskBudget,
					Faults:   inj,
					Registry: reg,
				})
				if serr != nil {
					fail(serr)
				}
				defer st.Close()
				xopts.Store = st
			}
			xstats, err = mlmsort.RunRealExternal(context.Background(), alg, xs, *threads, int(*chunk), xopts)
			stats = xstats.RealStats
		} else {
			stats, err = mlmsort.RunRealResilient(context.Background(), alg, xs, *threads, int(*chunk), opts)
		}
		if err != nil {
			fail(err)
		}
		wall := time.Since(start)
		if !workload.IsSorted(xs) {
			fail(fmt.Errorf("output not sorted — algorithm bug"))
		}
		fmt.Printf("%s sorted %d %s elements on the host in %v (verified)\n", alg, *n, order, wall)
		if *spillFlag {
			fmt.Printf("spill: %d runs, %v spilled, merge read-ahead %d (disk write %v, read %v)\n",
				xstats.Runs, units.Bytes(xstats.SpilledBytes), xstats.ReadAhead, dr.Write, dr.Read)
		}
		if *autotune {
			if stats.Retunes > 0 {
				p := stats.TunedPools
				fmt.Printf("autotune: re-provisioned to copy-in=%d copy-out=%d compute=%d after warmup\n",
					p.In, p.Out, p.Comp)
			} else {
				fmt.Println("autotune: no re-provisioning (variant has no copy pools or warmup never completed)")
			}
		}
		if *chaos {
			fmt.Printf("chaos: %v; retries=%d degradations=%d (%d/%d megachunks staged)\n",
				inj, res.Retries(), res.Degradations(), stats.Staged, stats.Megachunks)
		}
		if telemetryOn {
			emitRealTelemetry(rec, reg, *tracePath, *metrics, *n, *threads, alg.String())
		}
		return
	}

	cfg := mlmsort.PaperSortConfig(*n, order)
	cfg.Threads = *threads
	cfg.MegachunkElements = *chunk
	if *repeats > 1 {
		if telemetryOn {
			fmt.Fprintln(os.Stderr, "mlmsort: -trace/-metrics apply to single runs; ignoring with -runs > 1")
		}
		s := mlmsort.Repeated(alg, cfg, *repeats, 1)
		fmt.Printf("%s  n=%d  %s: %.2fs ± %.4fs (n=%d)\n", alg, *n, order, s.Mean, s.StdDev, s.N)
		return
	}
	res := mlmsort.Simulate(alg, cfg)
	fmt.Printf("%s  n=%d  %s: %.2fs (simulated)\n", alg, *n, order, res.Time.Seconds())
	if *verbose {
		fmt.Print(res.Trace.String())
	}
	if *tracePath != "" {
		var ct telemetry.ChromeTrace
		ct.AddProcessName(1, fmt.Sprintf("%s (simulated)", alg))
		ct.AddSimTrace(1, res.Trace)
		if err := ct.WriteFile(*tracePath); err != nil {
			fail(err)
		}
		fmt.Printf("wrote simulated Chrome trace to %s\n", *tracePath)
	}
	if *metrics {
		reg := telemetry.NewRegistry()
		telemetry.Publish(reg, telemetry.SimSpans(res.Trace))
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fail(err)
		}
	}
}

// wireReal attaches the -autotune and -chaos machinery to one real-run
// option set, publishing every family into the same registry so the two
// flags compose with -metrics: one scrape sees autotune_* next to
// faults_* and pipeline_* counters instead of each subsystem keeping a
// private, discarded registry.
func wireReal(opts *mlmsort.RealOptions, reg *telemetry.Registry,
	autotune bool, tuneThreads int, chaos bool, chaosSeed, n int64) (*fault.Injector, *telemetry.Resilience, fault.Plan) {
	var inj *fault.Injector
	var res *telemetry.Resilience
	var plan fault.Plan
	if autotune {
		opts.Autotune = &mlmsort.AutotuneOptions{
			TotalThreads: tuneThreads,
			Registry:     reg,
		}
		if opts.Buffers == 0 {
			// Re-provisioning only pays off when the stages actually
			// overlap; give the pipeline the paper's triple buffering.
			opts.Buffers = 3
		}
	}
	if chaos {
		plan = fault.NewPlan(chaosSeed, units.BytesForElements(n))
		res = telemetry.NewResilience(reg)
		rig := plan.Rig(res)
		inj, opts.Staging, opts.Policy = rig.Injector, rig.Staging, rig.Policy
		opts.Resilience = res
		opts.Buffers = 3
	}
	return inj, res, plan
}

// emitRealTelemetry renders the captured run: stall/overlap report, model
// drift, Chrome trace file, Prometheus metrics. It publishes the span-
// derived metrics into the run's shared registry, alongside whatever the
// autotuner and fault injector already recorded there.
func emitRealTelemetry(rec *telemetry.Recorder, reg *telemetry.Registry, tracePath string, metrics bool, n int64, threads int, alg string) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "mlmsort: %v\n", err)
		os.Exit(2)
	}
	spans := rec.Spans()
	a := telemetry.Publish(reg, spans)
	// Trace file first: if stdout is a pipe truncated early (e.g. | head),
	// the process dies on a later print and the file must already exist.
	if tracePath != "" {
		var ct telemetry.ChromeTrace
		ct.AddProcessName(1, fmt.Sprintf("%s (real)", alg))
		ct.AddSpans(1, spans)
		if err := ct.WriteFile(tracePath); err != nil {
			fail(err)
		}
	}
	fmt.Println()
	fmt.Print(a.StallReport().ASCII())
	fmt.Println()
	fmt.Print(a.ModelDriftReport(driftPrediction(n, threads)).ASCII())
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
