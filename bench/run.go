package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"knlmlm/internal/mlmsort"
)

// Running one workload: set up (several times, so set-up time is a
// median too), one timed window cut into rounds, tear down with leak
// checks, and turn the samples into the end-to-end metrics.

// env is what every workload run shares.
type env struct {
	root               string
	serveBin, coordBin string
	work               string // scratch for logs and spill dirs, under buildDir
	nproc              int
}

// retain pins how many finished jobs each server keeps. The default of
// 4096 keeps every 8 MiB result alive and goodput sinks as RSS grows;
// see bench/README.md.
const retain = 16

// system is a booted topology plus the load generator's clients.
type system struct {
	children []*child
	spillDir string
	clients  []*client
	hc       *http.Client
	job      jobFunc
	cpu      func() float64 // CPU seconds so far of the processes doing the sort
	peakRSS  func() float64 // MiB
	tr       *tracer        // nil outside a traced pass
}

// trace switches span recording on (or, with nil, off) for later jobs.
func (sys *system) trace(tr *tracer) {
	sys.tr = tr
	for _, c := range sys.clients {
		c.tr = tr
	}
}

func (e *env) serveArgs(w *workload, budgetMB, workers int, extra ...string) []string {
	return append([]string{
		"-addr", "127.0.0.1:0",
		"-budget-mb", strconv.Itoa(budgetMB),
		"-workers", strconv.Itoa(workers),
		"-retain", strconv.Itoa(max(retain, w.retain)),
		"-log-level", "off",
	}, extra...)
}

func (e *env) startServe(tag string, args []string) (*child, error) {
	return startChild(e.serveBin, tag, filepath.Join(e.work, tag+".log"), args...)
}

// boot starts the workload's servers and builds its clients.
func (e *env) boot(w *workload, inputs []*input) (sys *system, err error) {
	sys = &system{}
	defer func() {
		if err != nil {
			for _, c := range sys.children {
				_ = c.stop()
			}
		}
	}()
	var target string
	switch w.topo {
	case topoLib:
		return e.bootLib(sys, inputs), nil
	case topoNode:
		c, err := e.startServe("serve", e.serveArgs(w, 64, 2))
		if err != nil {
			return sys, err
		}
		sys.children, target = []*child{c}, c.url()
	case topoSpill:
		sys.spillDir = filepath.Join(e.work, "spill")
		if err := os.MkdirAll(sys.spillDir, 0o755); err != nil {
			return sys, err
		}
		c, err := e.startServe("serve", e.serveArgs(w, 64, 2,
			"-ddr-budget-mb", "4", "-disk-budget-mb", "512", "-spill-dir", sys.spillDir))
		if err != nil {
			return sys, err
		}
		sys.children, target = []*child{c}, c.url()
	case topoCluster:
		var urls []string
		for i := 0; i < 2; i++ {
			c, err := e.startServe("serve-"+strconv.Itoa(i), e.serveArgs(w, 32, 1))
			if err != nil {
				return sys, err
			}
			sys.children = append(sys.children, c)
			urls = append(urls, c.url())
		}
		c, err := startChild(e.coordBin, "coord", filepath.Join(e.work, "coord.log"),
			"-addr", "127.0.0.1:0", "-backends", strings.Join(urls, ","),
			"-retain", strconv.Itoa(retain), "-log-level", "off")
		if err != nil {
			return sys, err
		}
		sys.children, target = append(sys.children, c), c.url()
	}

	sys.hc = &http.Client{Transport: newTransport(w.clients), Timeout: 2 * time.Minute}
	maxCells := 0
	for _, in := range inputs {
		maxCells = max(maxCells, in.cells)
	}
	for lane := 0; lane < w.clients; lane++ {
		sys.clients = append(sys.clients, newClient(sys.hc, target, lane, maxCells, w.expect))
	}
	sys.job = func(lane, i int) (time.Time, time.Time, int64, error) {
		in := inputs[i%len(inputs)]
		begin := time.Now()
		stamp, err := sys.clients[lane].do(in)
		return begin, stamp, in.bytes(), err
	}
	sys.cpu = func() float64 {
		var sum float64
		for _, c := range sys.children {
			if s, err := procCPU(c.cmd.Process.Pid); err == nil {
				sum += s
			}
		}
		return sum
	}
	sys.peakRSS = func() float64 {
		var sum float64
		for _, c := range sys.children {
			if m, err := procPeakRSS(c.cmd.Process.Pid); err == nil {
				sum += m
			}
		}
		return sum
	}
	if w.topo == topoCluster {
		if err := waitBackendsUp(sys.hc, target, 2); err != nil {
			return sys, err
		}
	}
	return sys, nil
}

// bootLib is the in-process topology: the "system" is mlmsort.RunReal.
func (e *env) bootLib(sys *system, inputs []*input) *system {
	work := make([]int64, inputs[0].cells)
	sys.job = func(lane, i int) (time.Time, time.Time, int64, error) {
		in := inputs[i%len(inputs)]
		id := jobIDs.Add(1)
		t0 := time.Now()
		copy(work, in.raw) // the caller's copy of its data; not part of the sort
		begin := time.Now()
		err := mlmsort.RunReal(mlmsort.MLMSort, work, e.nproc, libMegachunk)
		stamp := time.Now()
		sys.tr.add(lane, "submit", "job", id, begin, stamp)
		if err == nil {
			err = verify(in, work)
		}
		end := time.Now()
		sys.tr.add(lane, "verify", "job", id, stamp, end)
		sys.tr.add(lane, "job", "", id, t0, end)
		return begin, stamp, in.bytes(), err
	}
	sys.cpu = selfCPU
	sys.peakRSS = func() float64 {
		m, _ := procPeakRSS(os.Getpid())
		return m
	}
	return sys
}

// waitBackendsUp polls the coordinator's /healthz until it has seen n
// backends answer a capacity poll, so the first job is range-partitioned
// across all of them.
func waitBackendsUp(hc *http.Client, target string, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h struct {
			Backends []struct {
				Up bool `json:"up"`
			} `json:"backends"`
		}
		raw, err := httpGet(hc, target+"/healthz")
		up := 0
		if err == nil && json.Unmarshal(raw, &h) == nil {
			for _, b := range h.Backends {
				if b.Up {
					up++
				}
			}
		}
		if up >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coordinator sees %d of %d backends up: %v", up, n, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// teardown drains every child and checks nothing was left behind.
func (sys *system) teardown() error {
	if sys.hc != nil {
		sys.hc.CloseIdleConnections()
	}
	var errs []string
	// Front to back: the coordinator (last booted) drains before its nodes.
	for i := len(sys.children) - 1; i >= 0; i-- {
		if err := sys.children[i].stop(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if sys.spillDir != "" {
		if err := dirEmpty(sys.spillDir); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if errs != nil {
		return fmt.Errorf("teardown: %s", strings.Join(errs, "; "))
	}
	return nil
}

// pass is one timed window's raw outcome.
type pass struct {
	samples   []sample
	bounds    []boundary // read at each slice boundary
	driverCPU float64    // this process's CPU seconds over the window
	roundLen  time.Duration
	rounds    int
	open      bool
}

// measure runs one timed window of rounds*roundLen. first offsets the
// job index so a second window continues the stream.
func measure(w *workload, sys *system, roundLen time.Duration, rounds, first int, fails *failures) pass {
	p := pass{roundLen: roundLen, rounds: rounds, open: w.openRate > 0}
	window := p.window()
	start := time.Now().Add(5 * time.Millisecond)
	boundsDone := make(chan []boundary, 1)
	go func() {
		boundsDone <- sampleAtBoundaries(start, roundLen/slicesPerRound, rounds*slicesPerRound, sys.cpu)
	}()
	self0 := selfCPU()
	if w.openRate > 0 {
		due := fixedRate(w.openRate, int(w.openRate*window.Seconds()))
		p.samples = openLoop(w.clients, start, due, first, sys.job, fails)
	} else {
		time.Sleep(time.Until(start))
		p.samples = closedLoop(w.clients, start, window, first, sys.job, fails)
	}
	p.driverCPU = selfCPU() - self0
	p.bounds = <-boundsDone
	return p
}

// result is one workload's report.
type result struct {
	Workload  string             `json:"workload"`
	Metrics   map[string]summary `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Latencies int                `json:"latency_samples"` // the pooled calm jobs the two percentiles rest on
	Rounds    int                `json:"rounds"`
	RoundS    float64            `json:"round_seconds"`
	PerRound  []roundStats       `json:"per_round"`
	Errors    []string           `json:"errors,omitempty"`
	Servers   []string           `json:"servers,omitempty"`
	SpillFS   string             `json:"spill_fs,omitempty"`
	Notes     []string           `json:"notes,omitempty"`

	meanLatMS  float64 // mean job latency on the VM's clock, for the traced/untraced ratio
	latePct90  float64 // open loop: p90 of how late the generator started a job, same clock
	clientFrac float64
}

// slices turns the cumulative boundary readings into per-slice deltas
// and marks the calm ones.
func (p pass) slices() []slice {
	out := make([]slice, len(p.bounds)-1)
	for i := range out {
		a, b := p.bounds[i], p.bounds[i+1]
		out[i] = slice{busy: b.busy - a.busy, steal: b.steal - a.steal, total: b.total - a.total, cpu: b.cpu - a.cpu}
	}
	markCalm(out, quarter(len(out)))
	return out
}

// endToEnd turns a pass into the end-to-end metrics. Goodput and CPU
// cost are computed per round and reported as the median over the usable
// rounds. The two latency percentiles are taken over the usable rounds'
// calm jobs pooled: a round holds twenty to fifty jobs of the large
// workloads, so its own p90 has two to five samples beyond it and swings
// by a quarter between runs, while the pool has the ten the rule asks
// for. The per-round percentiles are printed and give the range.
func (p pass) endToEnd(sys *system, setupS []float64) (metrics map[string]summary, rounds []roundStats, pooledLats int) {
	rounds = splitRounds(p.samples, p.slices(), p.roundLen/slicesPerRound, p.open)
	anyUsable := false
	for _, r := range rounds {
		anyUsable = anyUsable || r.usable
	}
	var good, p50, p90, cpu, pool []float64
	for i := range rounds {
		r := &rounds[i]
		// With no round a quarter calm, any round a job completed calmly
		// in has to do.
		r.Used = r.usable || !anyUsable && r.CalmJobs > 0
		if r.Used {
			good, p50, p90, cpu = append(good, r.GoodputMBps), append(p50, r.P50MS), append(p90, r.P90MS), append(cpu, r.CPUSPerGB)
			pool = append(pool, r.lats...)
		}
	}
	sort.Float64s(pool)
	pooled := func(pct float64, perRound []float64) summary {
		lo, hi := minMax(perRound)
		return summary{Value: percentile(pool, pct), Unit: "ms", Min: lo, Max: hi}
	}
	rss := sys.peakRSS()
	return map[string]summary{
		"goodput_mbps": summarize("MB/s", good),
		"job_p50_ms":   pooled(50, p50),
		"job_p90_ms":   pooled(90, p90),
		"cpu_s_per_gb": summarize("s/GB", cpu),
		"peak_rss_mb":  {Value: rss, Unit: "MiB", Min: rss, Max: rss},
		"setup_s":      summarize("s", setupS),
	}, rounds, len(pool)
}

// join appends a later window to p as one more round, shifting its
// samples past what p already holds.
func (p *pass) join(q pass) {
	shift := p.window()
	for _, s := range q.samples {
		if !q.open && s.to >= q.window() {
			// Unfinished when its window shut: its tail would otherwise
			// be credited to the window joined after it.
			continue
		}
		s.at, s.from, s.to = s.at+shift, s.from+shift, s.to+shift
		p.samples = append(p.samples, s)
	}
	if p.rounds == 0 {
		p.bounds = append(p.bounds, q.bounds[0])
	}
	// Boundary readings are cumulative; the gap between the two windows
	// belongs to neither, so rebase the new window's onto the old one's.
	last := p.bounds[len(p.bounds)-1]
	for _, b := range q.bounds[1:] {
		p.bounds = append(p.bounds, boundary{
			cpu:   last.cpu + b.cpu - q.bounds[0].cpu,
			busy:  last.busy + b.busy - q.bounds[0].busy,
			steal: last.steal + b.steal - q.bounds[0].steal,
			total: last.total + b.total - q.bounds[0].total,
		})
	}
	p.roundLen, p.open = q.roundLen, q.open
	p.rounds += q.rounds
	p.driverCPU += q.driverCPU
}

func (p pass) window() time.Duration { return p.roundLen * time.Duration(p.rounds) }

func (p pass) counts() (attempted, failed int) {
	for _, s := range p.samples {
		if s.at < 0 || s.at >= p.window() {
			continue
		}
		attempted++
		if !s.ok {
			failed++
		}
	}
	return
}

// onVMClock is every in-window job's latency and generator lateness,
// each divided by its round's dilation: what the traced/untraced ratio
// and the lateness check are taken over.
func (p pass) onVMClock(rounds []roundStats) (meanLatMS, lateP90MS float64) {
	var late []float64
	var sum float64
	n := 0
	for _, s := range p.samples {
		r := int(s.at / p.roundLen)
		if s.at < 0 || r >= len(rounds) {
			continue
		}
		late = append(late, s.lateMS/rounds[r].Dilation)
		if s.ok {
			sum += s.latMS / rounds[r].Dilation
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(late)
	return sum / float64(n), percentile(late, 90)
}

// setUp is the part a user waits for before the first timed job:
// generate the inputs, boot the servers, warm them with a fixed number
// of jobs. Like every time the benchmark reports, the duration is on the
// VM's clock (see dilation).
func (e *env) setUp(w *workload, seed int64, fails *failures) (*system, time.Duration, error) {
	t0 := time.Now()
	busy0, steal0, _ := hostJiffies()
	inputs := w.inputs(rand.New(rand.NewSource(seed)))
	sys, err := e.boot(w, inputs)
	if err != nil {
		return nil, 0, err
	}
	warmUp(w.clients, w.warmJobs, sys.job, fails)
	took := time.Since(t0)
	busy1, steal1, _ := hostJiffies()
	return sys, time.Duration(float64(took) / dilation(busy1-busy0, steal1-steal0)), nil
}

// runWorkload is the untraced run: setups set-ups (all but the last torn
// down again), then one window of rounds rounds.
func (e *env) runWorkload(w *workload, seed int64, seconds float64, rounds, setups int) (*result, error) {
	fails := &failures{}
	var sys *system
	var setupS []float64
	for k := 0; k < setups; k++ {
		if sys != nil {
			if err := sys.teardown(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if sys, took, err = e.setUp(w, seed, fails); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	runtime.GC()
	roundLen := time.Duration(seconds / float64(rounds) * float64(time.Second))
	p := measure(w, sys, roundLen, rounds, w.warmJobs, fails)
	res := e.report(w, sys, p, setupS, fails)
	if err := sys.teardown(); err != nil {
		return res, err
	}
	return res, nil
}

func (e *env) report(w *workload, sys *system, p pass, setupS []float64, fails *failures) *result {
	res := &result{Workload: w.name, Rounds: p.rounds, RoundS: p.roundLen.Seconds()}
	res.Metrics, res.PerRound, res.Latencies = p.endToEnd(sys, setupS)
	res.Attempted, res.Failed = p.counts()
	// A failure anywhere (warm-up included) fails the run, even if it
	// fell outside the counted window.
	if fails.n > res.Failed {
		res.Failed = fails.n
		res.Attempted = max(res.Attempted, fails.n)
	}
	res.Errors = fails.msgs
	res.meanLatMS, res.latePct90 = p.onVMClock(res.PerRound)
	if total := p.driverCPU + p.bounds[len(p.bounds)-1].cpu - p.bounds[0].cpu; total > 0 && w.topo != topoLib {
		res.clientFrac = p.driverCPU / total
	} else if w.topo == topoLib {
		res.clientFrac = 1
	}
	for _, c := range sys.children {
		res.Servers = append(res.Servers, c.commandLine())
	}
	if sys.spillDir != "" {
		res.SpillFS = fsType(sys.spillDir)
	}
	if !percentileResolved(res.Latencies, 90) {
		res.Notes = append(res.Notes, fmt.Sprintf("only %d samples lie beyond p90 (want %d): lengthen -seconds",
			samplesBeyond(res.Latencies, 90), minBeyond))
	}
	if w.openRate > 0 && res.latePct90 >= 5 {
		res.Notes = append(res.Notes, fmt.Sprintf("generator lateness p90 %.2f ms is over 5 ms: lower the rate", res.latePct90))
	}
	if w.topo == topoCluster {
		res.Notes = append(res.Notes, "four processes share "+strconv.Itoa(e.nproc)+" cores: this measures coordination cost, not scale-out")
	}
	return res
}
