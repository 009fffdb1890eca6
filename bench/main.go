// Command bench is the one benchmark of the sort service. It builds
// cmd/mlmserve and cmd/mlmcoord from the tree, boots them as child
// processes on port 0, generates every input from -seed, drives the six
// workloads of workloads.go from this one process with at most nproc
// client goroutines and connections, verifies every result, and prints
// every metric by name with its unit.
//
//	go run ./bench -seed 1                    every workload, untraced
//	go run ./bench -seed 1 -trace 1           traced quarter passes plus the per-layer panel
//	go run ./bench -quick                     one short round each, for a smoke test
//	go run ./bench -workload node-small -seed 3 -seconds 24 -trace 0
//
// The last form is what a benchmark harness calls; the final line of
// standard output is then one JSON object {correct, attempted, failed,
// metrics}. bench/README.md documents every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// endToEndNames lists the end-to-end metrics in print order.
var endToEndNames = []struct{ name, unit, better string }{
	{"goodput_mbps", "MB/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"cpu_s_per_gb", "s/GB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

const (
	defaultSeconds = 24
	// roundSeconds is the length of a round: the window holds as many as
	// fit, ten at the default, and the open loop's deck fills one.
	roundSeconds = 2.4
	// setups is how many times a run sets up, so setup_s is a median.
	setups = 3
)

// roundsIn is how many rounds a window of the given length is cut into.
func roundsIn(seconds float64) int {
	return max(1, int(math.Round(seconds/roundSeconds)))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
	compare  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload by name (default: all six)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of each workload's timed window")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced pass: quarter-length untraced and traced windows with client spans, then the per-layer panel")
	flag.BoolVar(&o.quick, "quick", false, "one round at a tenth of -seconds and one set-up per workload; a smoke test, not a measurement")
	flag.StringVar(&o.out, "out", "", "also write the full report as JSON to this file")
	flag.StringVar(&o.compare, "compare", "", "A.json,B.json: compare two -out reports against BENCHMARK.json's bounds and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	if o.compare != "" {
		err = compareReports(o.compare)
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report is the -out document.
type report struct {
	Host     fingerprintInfo    `json:"host"`
	Controls map[string]float64 `json:"host_controls"`
	Results  []*result          `json:"results"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// line is the harness contract: the last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	todo := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
		}
		todo = []workload{*w}
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	e := &env{root: root, nproc: runtime.NumCPU()}
	var buildTook time.Duration
	if e.serveBin, e.coordBin, buildTook, err = buildBinaries(root); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir, "work"), 0o755); err != nil {
		return err
	}
	if e.work, err = os.MkdirTemp(filepath.Join(root, buildDir, "work"), "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	fp := hostFingerprint(root, o.seed)
	fmt.Printf("knlmlm bench: %s\n", fp)
	fmt.Printf("build: %.2fs (go build ./cmd/mlmserve ./cmd/mlmcoord; not part of setup_s)\n", buildTook.Seconds())
	fmt.Printf("load: one process, at most %d client goroutines and connections\n", e.nproc)

	rep := report{Host: fp}
	var last line
	for i := range todo {
		w := &todo[i]
		fmt.Printf("\n== %s ==\n%s\nwhy: %s\n", w.name, w.shape, w.why)
		if w.unrefereed != "" {
			fmt.Printf("not in BENCHMARK.json: %s\n", w.unrefereed)
		}
		if o.trace == 1 {
			tres, l, err := e.runTraced(w, o)
			if tres != nil {
				rep.Results = append(rep.Results, tres)
			}
			if err != nil {
				return err
			}
			rep.PerLayer = map[string]float64{}
			for k, v := range l.Metrics {
				rep.PerLayer[k] = v.Value
			}
			last = l
			continue
		}
		seconds, nsetups := o.seconds, setups
		if o.quick {
			seconds, nsetups = o.seconds/10, 1
		}
		nrounds := roundsIn(seconds)
		res, err := e.runWorkload(w, o.seed, seconds, nrounds, nsetups)
		if res != nil {
			printResult(res)
			rep.Results = append(rep.Results, res)
		}
		if err != nil {
			return err
		}
		last = line{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
		for _, m := range endToEndNames {
			s := res.Metrics[m.name]
			last.Metrics[m.name] = metricValue{s.Value, s.Unit}
		}
	}

	// The host controls go in every output. They run last, after every
	// peak-RSS reading, because their arrays would otherwise be this
	// process's high-water mark.
	if o.trace == 0 {
		rep.Controls = hostControls(3)
	} else {
		rep.Controls = map[string]float64{}
		for _, k := range []string{"host.copy_mbps", "host.triad_mbps", "host.serial_sort_mbps"} {
			rep.Controls[k] = rep.PerLayer[k]
		}
	}
	fmt.Printf("\nhost controls: copy %.0f MB/s, triad %.0f MB/s (64 MiB arrays against an L2 of %s and an L3 of %s), serial sort %.1f MB/s (1Mi keys)\n",
		rep.Controls["host.copy_mbps"], rep.Controls["host.triad_mbps"], fp.Caches["L2"], fp.Caches["L3"], rep.Controls["host.serial_sort_mbps"])

	if o.out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	failed := 0
	for _, r := range rep.Results {
		failed += r.Failed
	}
	if o.workload != "" {
		b, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", b)
	}
	if failed > 0 || !last.Correct {
		return fmt.Errorf("%d jobs failed", failed)
	}
	return nil
}

func printResult(res *result) {
	for _, s := range res.Servers {
		fmt.Println("server:", s)
	}
	if res.SpillFS != "" {
		fmt.Println("spill dir filesystem:", res.SpillFS)
	}
	fmt.Printf("window: %d rounds of %.2fs in %d slices each; value = median over the usable rounds (*), latencies pooled over them [min - max of rounds]\n",
		res.Rounds, res.RoundS, slicesPerRound)
	for _, m := range endToEndNames {
		s := res.Metrics[m.name]
		fmt.Printf("  %-14s %12.4f %-5s [%.4f - %.4f]\n", m.name, s.Value, s.Unit, s.Min, s.Max)
	}
	for r, rr := range res.PerRound {
		used := " "
		if rr.Used {
			used = "*"
		}
		fmt.Printf("  round %d%s %8.2f MB/s, p50 %9.3f ms, p90 %9.3f ms, %6.2f cpu-s/GB from %2d/%d calm slices, %d/%d jobs | whole round: steal %4.1f%%, dilation %.3f, wall clock %.2f MB/s, %.3f ms, %.3f ms\n",
			r+1, used, rr.GoodputMBps, rr.P50MS, rr.P90MS, rr.CPUSPerGB, rr.CalmSlices, slicesPerRound, rr.CalmJobs, rr.Jobs,
			100*rr.Stolen, rr.Dilation, rr.WallGoodputMBps, rr.WallP50MS, rr.WallP90MS)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-14s %12.4f ratio (%d failed of %d attempted)\n", "failed_frac", frac, res.Failed, res.Attempted)
	fmt.Printf("  latency samples: %d jobs that ran in calm slices of the usable rounds, %d of them beyond p90\n", res.Latencies, samplesBeyond(res.Latencies, 90))
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	for _, e := range res.Errors {
		fmt.Println("  error:", e)
	}
}

// runTraced is the -trace 1 pass for one workload: a quarter of the
// window untraced, a quarter with client spans kept in memory, then the
// per-layer panel. The spans are written once, at the end, as
// Chrome trace JSON.
func (e *env) runTraced(w *workload, o options) (*result, line, error) {
	fails := &failures{}
	sys, took, err := e.setUp(w, o.seed, fails)
	if err != nil {
		return nil, line{}, err
	}
	// Two untraced and two traced windows of an eighth each, alternating,
	// so a change in the host's speed lands on both sides of the ratio.
	eighth := time.Duration(o.seconds / 8 * float64(time.Second))
	tr := newTracer(max(w.clients, 1))
	var pu, pt pass
	next := w.warmJobs
	for i := 0; i < 4; i++ {
		into, with := &pu, (*tracer)(nil)
		if i%2 == 1 {
			into, with = &pt, tr
		}
		sys.trace(with)
		p := measure(w, sys, eighth, 1, next, fails)
		next += len(p.samples)
		into.join(p)
	}
	sys.trace(nil)
	untraced := e.report(w, sys, pu, []float64{took.Seconds()}, &failures{})
	traced := e.report(w, sys, pt, []float64{took.Seconds()}, fails)
	if err := sys.teardown(); err != nil {
		return traced, line{}, err
	}
	fmt.Println("untraced windows:")
	printResult(untraced)
	fmt.Println("traced windows:")
	printResult(traced)

	layer, errs := runPanel(e, o.seed, tr)
	spans := tr.all()
	b := breakdown(spans)
	layer["trace.job_ms"], layer["trace.submit_ms"], layer["trace.download_ms"] = b.jobMS, b.submitMS, b.downloadMS
	layer["trace.verify_ms"], layer["trace.self_ms"] = b.verifyMS, b.selfMS
	layer["bench.late_p90_ms"] = traced.latePct90
	layer["bench.client_cpu_frac"] = untraced.clientFrac
	if untraced.meanLatMS > 0 {
		layer["bench.trace_overhead_frac"] = traced.meanLatMS/untraced.meanLatMS - 1
	}
	tracePath := filepath.Join(e.root, buildDir, "trace-"+w.name+".json")
	if err := writeChrome(tracePath, spans); err != nil {
		return traced, line{}, err
	}

	fmt.Printf("traced jobs: %d; mean job %.3f ms = submit %.3f + download %.3f + verify %.3f + self %.3f (worst residual %.6f ms)\n",
		b.jobs, b.jobMS, b.submitMS, b.downloadMS, b.verifyMS, b.selfMS, b.maxResidualMS)
	fmt.Printf("trace: %d spans written to %s (load in chrome://tracing or Perfetto)\n", len(spans), tracePath)
	fmt.Println("per-layer metrics (MB/s also as a share of host.copy_mbps):")
	l := line{Attempted: untraced.Attempted + traced.Attempted, Failed: fails.n, Metrics: map[string]metricValue{}}
	copyMBps := layer["host.copy_mbps"]
	for _, m := range perLayerNames {
		v, ok := layer[m.name]
		if !ok {
			errs = append(errs, "panel produced no "+m.name)
		}
		l.Metrics[m.name] = metricValue{v, m.unit}
		share := ""
		if m.unit == "MB/s" && copyMBps > 0 && m.name != "host.copy_mbps" {
			share = fmt.Sprintf("  (%.3f of copy)", v/copyMBps)
		}
		fmt.Printf("  %-34s %14.4f %-5s%s\n", m.name, v, m.unit, share)
	}
	for _, e := range errs {
		fmt.Println("  error:", e)
	}
	l.Correct = fails.n == 0 && len(errs) == 0
	traced.Failed = fails.n
	if len(errs) > 0 {
		return traced, l, fmt.Errorf("layer panel: %s", strings.Join(errs, "; "))
	}
	return traced, l, nil
}

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareReports is bench/agree.sh's second half: every end-to-end
// metric of every workload must agree between the two reports within
// its bound, and neither may have a failed job.
func compareReports(arg string) error {
	pathA, pathB, ok := strings.Cut(arg, ",")
	if !ok {
		return fmt.Errorf("-compare wants A.json,B.json")
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	load := func(path string) (map[string]*result, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		m := map[string]*result{}
		for _, r := range rep.Results {
			m[r.Workload] = r
		}
		return m, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	// Only the workloads BENCHMARK.json names are held to the bounds.
	var names []string
	for _, w := range spec.Workloads {
		if a[w.Name] != nil {
			names = append(names, w.Name)
		}
	}
	bad := 0
	for _, name := range names {
		ra, rb := a[name], b[name]
		if rb == nil {
			fmt.Printf("%-16s missing from %s\n", name, pathB)
			bad++
			continue
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Printf("%-16s failed jobs: %d and %d\n", name, ra.Failed, rb.Failed)
			bad++
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			status := "ok"
			if err := agree(va, vb, m.Better, m.Bound); err != nil {
				status = "DISAGREE: " + err.Error()
				bad++
			}
			fmt.Printf("%-16s %-14s %12.4f %12.4f  %s\n", name, m.Name, va, vb, status)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d disagreements", bad)
	}
	return nil
}
