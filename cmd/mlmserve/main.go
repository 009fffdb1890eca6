// Command mlmserve runs the sort service: the MCDRAM-budget scheduler
// (internal/sched) behind the HTTP/JSON front end (internal/serve).
//
// Examples:
//
//	mlmserve -addr :8080 -budget-mb 64 -workers 4
//	mlmserve -addr 127.0.0.1:0 -budget-mb 16 -chaos -chaos-seed 7
//	mlmserve -addr :8080 -budget-mb 16 -ddr-budget-mb 1 -disk-budget-mb 256
//
// With -ddr-budget-mb and -disk-budget-mb both set, jobs whose working
// set exceeds the DDR budget are admitted into the spill class instead
// of being rejected: phase 1 spills sorted runs to disk (under
// -spill-dir, charged against a separate disk ledger) and the result
// streams to the client through a final k-way merge without ever
// materializing in memory. Run files are deleted when the result is
// downloaded, the job is canceled or evicted, or the server drains.
//
// The chosen listen address is printed on one line ("mlmserve listening
// on ...") so wrappers binding port 0 can discover the port. SIGINT or
// SIGTERM triggers a graceful stop: /healthz flips to 503, admissions are
// refused with 429, every queued and running job is drained, then the
// HTTP listener shuts down.
//
// With -chaos, every job pipeline runs under a seeded fault-injection
// plan (stage errors/panics/latency, MCDRAM allocation failures) — the
// serving analog of cmd/chaos — so resilience can be exercised against
// live traffic.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"knlmlm/internal/edge"
	"knlmlm/internal/exec"
	"knlmlm/internal/fault"
	"knlmlm/internal/mem"
	"knlmlm/internal/sched"
	"knlmlm/internal/serve"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
)

// options collects the flag set run() serves from.
type options struct {
	addr         string
	budgetMB     int64
	ddrMB        int64
	diskMB       int64
	spillDir     string
	workers      int
	queueLimit   int
	threads      int
	retain       int
	decodeGate   int
	chaos        bool
	chaosSeed    int64
	simChunkMS   int
	drainTimeout time.Duration
	logLevel     string
	logJSON      bool
	flightCap    int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	flag.Int64Var(&o.budgetMB, "budget-mb", 64, "MCDRAM staging budget leased to jobs, in MiB")
	flag.Int64Var(&o.ddrMB, "ddr-budget-mb", 0, "DDR working-set budget, in MiB (0 = uncapped; over-budget jobs spill when a disk budget is set)")
	flag.Int64Var(&o.diskMB, "disk-budget-mb", 0, "disk budget for spill run files, in MiB (0 disables the spill class)")
	flag.StringVar(&o.spillDir, "spill-dir", "", "parent directory for spill run files (empty = OS temp dir)")
	flag.IntVar(&o.workers, "workers", 0, "concurrent pipelines (0 = scheduler default)")
	flag.IntVar(&o.queueLimit, "queue", 0, "admission queue bound (0 = scheduler default)")
	flag.IntVar(&o.threads, "threads", 0, "thread budget fair-shared across running jobs (0 = GOMAXPROCS)")
	flag.IntVar(&o.retain, "retain", 4096, "terminal jobs retained for status/result lookup")
	flag.IntVar(&o.decodeGate, "decode-gate", 0, "concurrent submit-body decodes; deadlined requests past the gate get 429 ingest-busy (0 = max(2, GOMAXPROCS))")
	flag.BoolVar(&o.chaos, "chaos", false, "run every job pipeline under a seeded fault-injection plan")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 1, "chaos plan seed (with -chaos)")
	flag.IntVar(&o.simChunkMS, "sim-chunk-ms", 0, "add a fixed sleep to every chunk's Compute stage, in ms: makes per-node service rate a configured quantity so cluster scale-out is measurable on one box (0 = off)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error, or off")
	flag.BoolVar(&o.logJSON, "log-json", false, "emit structured logs as JSON (default logfmt-style text)")
	flag.IntVar(&o.flightCap, "flight-recorder", 0, "job traces retained in the flight recorder ring (0 = default)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mlmserve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.budgetMB <= 0 {
		return fmt.Errorf("-budget-mb must be positive")
	}
	if o.ddrMB < 0 || o.diskMB < 0 {
		return fmt.Errorf("-ddr-budget-mb and -disk-budget-mb must be non-negative")
	}
	budget := units.Bytes(o.budgetMB) * units.MiB
	logger, err := edge.BuildLogger(o.logLevel, o.logJSON)
	if err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	cfg := sched.Config{
		MCDRAMBudget:      budget,
		DDRBudget:         units.Bytes(o.ddrMB) * units.MiB,
		DiskBudget:        units.Bytes(o.diskMB) * units.MiB,
		SpillDir:          o.spillDir,
		Workers:           o.workers,
		QueueLimit:        o.queueLimit,
		TotalThreads:      o.threads,
		RetainJobs:        o.retain,
		Registry:          reg,
		Resilience:        telemetry.NewResilience(reg),
		FlightRecorderCap: o.flightCap,
		Logger:            logger,
		// One pool closes the upload loop: serve decodes binary submits
		// into it, the scheduler recycles buffers at retention eviction.
		KeyPool: mem.NewSlicePool(),
	}
	if o.chaos {
		plan := fault.NewPlan(o.chaosSeed, budget)
		rig := plan.Rig(cfg.Resilience)
		cfg.Staging, cfg.Policy = rig.Staging, rig.Policy
		// Spill-class jobs run their run-file IO under the same plan.
		cfg.IOFaults = rig.Injector
		fmt.Printf("mlmserve chaos plan seed=%d: %s\n", o.chaosSeed, plan)
	}
	if o.simChunkMS > 0 {
		// Benchmark aid for single-box cluster experiments: a sleeping
		// Compute stage releases the CPU, so N colocated nodes really do
		// serve at N times one node's configured rate instead of fighting
		// over the same cores. Composes under the chaos wrap so injected
		// faults still see the slowed pipeline.
		d := time.Duration(o.simChunkMS) * time.Millisecond
		sim := func(s exec.Stages) exec.Stages {
			inner := s.Compute
			s.Compute = func(i int, buf []int64) error {
				time.Sleep(d)
				if inner != nil {
					return inner(i, buf)
				}
				return nil
			}
			return s
		}
		if prev := cfg.Wrap; prev != nil {
			cfg.Wrap = func(s exec.Stages) exec.Stages { return prev(sim(s)) }
		} else {
			cfg.Wrap = sim
		}
	}

	sc, err := sched.New(cfg)
	if err != nil {
		return err
	}
	defer sc.Close()
	if rec := sc.SpillRecovery(); rec.Dirs > 0 {
		fmt.Printf("mlmserve: reclaimed %d orphaned spill dir(s) from a previous crash — %d run files, %d bytes (%d sealed)\n",
			rec.Dirs, rec.Runs, rec.Bytes, rec.SealedRuns)
	}

	srv, err := serve.New(serve.Config{
		Scheduler:         sc,
		Registry:          reg,
		Logger:            logger,
		DecodeConcurrency: o.decodeGate,
	})
	if err != nil {
		return err
	}

	detail := fmt.Sprintf("budget %v", budget)
	if cfg.DiskBudget > 0 {
		detail += fmt.Sprintf(", ddr %v, disk %v, rate %v", cfg.DDRBudget, cfg.DiskBudget, sc.DiskRate().Read)
	}
	err = edge.Daemon{
		Name: "mlmserve", Addr: o.addr, Detail: detail,
		Handler: srv, Drain: srv.Drain, DrainTimeout: o.drainTimeout,
	}.Run()
	if err != nil {
		return err
	}
	snap := sc.Snapshot()
	fmt.Printf("mlmserve: drained — %d jobs submitted, high water %v\n",
		snap.Submitted, snap.HighWaterBytes)
	if snap.DiskBudgetBytes > 0 {
		fmt.Printf("mlmserve: spill — disk high water %v / %v, leased %v at exit\n",
			sc.DiskBudget().HighWater(), snap.DiskBudgetBytes, snap.DiskLeasedBytes)
	}
	return nil
}
