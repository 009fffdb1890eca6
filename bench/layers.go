package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"knlmlm/internal/cluster"
	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/psort"
	"knlmlm/internal/sched"
	"knlmlm/internal/serve"
	"knlmlm/internal/spill"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/tune"
	"knlmlm/internal/units"
	"knlmlm/internal/wire"
)

// The per-layer panel of the traced pass: each layer is measured from
// outside, by timing calls into its public functions on inputs drawn
// from the same seed. Every measurement is a median of a few
// repetitions and is wrapped in a span named for its layer.

type panel struct {
	e     *env
	rng   *rand.Rand
	tr    *tracer
	out   map[string]float64
	layer string
	errs  []string
}

func (p *panel) fail(what string, err error) {
	if err != nil {
		p.errs = append(p.errs, what+": "+err.Error())
	}
}

// in runs one layer's measurements inside a span named for it.
func (p *panel) in(layer string, fn func()) {
	p.layer = "layer:" + layer
	t0 := time.Now()
	fn()
	p.tr.add(0, p.layer, "", 0, t0, time.Now())
}

// time is the median duration of fn over reps runs; prep runs untimed
// before each.
func (p *panel) time(metric string, reps int, prep, fn func()) time.Duration {
	ds := make([]float64, reps)
	t00 := time.Now()
	for i := range ds {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	p.tr.add(0, metric, p.layer, 0, t00, time.Now())
	return time.Duration(median(ds))
}

func usec(d time.Duration) float64 { return float64(d) / 1e3 }

// allocsPer is the mean heap allocations of one fn call.
func allocsPer(runs int, fn func()) float64 {
	var a, b runtime.MemStats
	fn()
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}

func sortedKeys(rng *rand.Rand, n int) []int64 {
	ks := genKeys(rng, n, orderRandom)
	slices.Sort(ks)
	return ks
}

// runPanel measures every layer and returns the per-layer metrics.
func runPanel(e *env, seed int64, tr *tracer) (map[string]float64, []string) {
	p := &panel{e: e, rng: rand.New(rand.NewSource(seed)), tr: tr, out: map[string]float64{}}
	_, steal0, total0 := hostJiffies()
	p.in("host", func() {
		for k, v := range hostControls(5) {
			p.out[k] = v
		}
	})
	p.in("psort", p.psort)
	p.in("exec", p.exec)
	p.in("mlmsort", p.mlmsort)
	p.in("spill", p.spill)
	p.in("wire", p.wire)
	p.in("sched", p.sched)
	p.in("serve", p.serveAndCluster)
	// The panel's numbers are on the wall clock; this says how much of
	// the VM's CPU time the hypervisor took meanwhile.
	_, steal1, total1 := hostJiffies()
	p.out["bench.panel_steal_frac"] = slice{steal: steal1 - steal0, total: total1 - total0}.stolen()
	runtime.GC()
	return p.out, p.errs
}

func (p *panel) psort() {
	src := genKeys(p.rng, mi, orderRandom)
	xs, scratch := make([]int64, mi), make([]int64, mi)
	load := func() { copy(xs, src) }

	d := p.time("psort.radix_i64_1Mi_mbps", 7, load, func() { psort.RadixSortScratch(xs, scratch) })
	p.out["psort.radix_i64_1Mi_mbps"] = mbps(8*mi, d)

	rev := genKeys(p.rng, mi, orderReverse)
	d = p.time("psort.adaptive_reverse_1Mi_mbps", 7, func() { copy(xs, rev) }, func() { psort.SortAdaptive(xs, scratch) })
	p.out["psort.adaptive_reverse_1Mi_mbps"] = mbps(8*mi, d)

	p.out["psort.allocs_per_sort"] = allocsPer(5, func() { load(); psort.SortAdaptive(xs, scratch) })

	// Floats share the int64 cells; records are two cells each.
	fbits := genCells(p.rng, wire.KindFloat64, orderRandom, mi)
	fs, fscratch := make([]float64, mi), make([]float64, mi)
	d = p.time("psort.sort_f64_1Mi_mbps", 5, func() {
		for i, b := range fbits {
			fs[i] = math.Float64frombits(uint64(b))
		}
	}, func() { psort.SortFloat64sScratch(fs, fscratch) })
	p.out["psort.sort_f64_1Mi_mbps"] = mbps(8*mi, d)

	rsrc := genCells(p.rng, wire.KindRecord, orderRandom, 2*mi)
	rcells, rscratch := make([]int64, 2*mi), make([]psort.KV, mi)
	d = p.time("psort.sort_rec_1Mi_mbps", 5, func() { copy(rcells, rsrc) },
		func() { psort.SortRecordsScratch(psort.KVsFromInt64s(rcells), rscratch) })
	p.out["psort.sort_rec_1Mi_mbps"] = mbps(16*mi, d)

	a, b := sortedKeys(p.rng, mi/2), sortedKeys(p.rng, mi/2)
	d = p.time("psort.merge2_random_mbps", 7, nil, func() { psort.Merge2(xs, a, b) })
	p.out["psort.merge2_random_mbps"] = mbps(8*mi, d)

	// The loser tree consumes the run headers it is given, so each
	// repetition merges a fresh copy of them.
	mergeK := func(metric string, runs [][]int64) {
		work := make([][]int64, len(runs))
		d := p.time(metric, 7, func() { copy(work, runs) }, func() { psort.MergeK(xs, work...) })
		p.out[metric] = mbps(8*mi, d)
	}
	random := make([][]int64, 8)
	for i := range random {
		random[i] = sortedKeys(p.rng, mi/8)
	}
	mergeK("psort.mergek8_random_mbps", random)
	// Blocky: contiguous 512-key blocks dealt round-robin, the shape
	// range-partitioned producers emit.
	blocky := make([][]int64, 8)
	for next := int64(0); len(blocky[7]) < mi/8; {
		for i := range blocky {
			for j := 0; j < 512; j++ {
				blocky[i] = append(blocky[i], next)
				next++
			}
		}
	}
	mergeK("psort.mergek8_blocky_mbps", blocky)

	// 8Mi keys: the only size here past the tiled scatter's 4Mi
	// threshold. No workload sorts chunks this large today; the number
	// is the baseline for one that will.
	src8 := genKeys(p.rng, 8*mi, orderRandom)
	xs8, scratch8 := make([]int64, 8*mi), make([]int64, 8*mi)
	d = p.time("psort.radix_i64_8Mi_mbps", 3, func() { copy(xs8, src8) }, func() { psort.RadixSortScratch(xs8, scratch8) })
	p.out["psort.radix_i64_8Mi_mbps"] = mbps(64*mi, d)
}

func (p *panel) exec() {
	const n, chunk = 4 * mi, 512 * ki
	src, dst := genKeys(p.rng, n, orderRandom), make([]int64, n)
	nop := func(int, []int64) error { return nil }
	st := exec.Stages{
		NumChunks: n / chunk,
		ChunkLen:  func(int) int { return chunk },
		CopyIn:    func(i int, d []int64) error { copy(d, src[i*chunk:]); return nil },
		Compute:   nop,
		CopyOut:   func(i int, s []int64) error { copy(dst[i*chunk:], s); return nil },
		Pool:      mem.Pool,
	}
	d := p.time("exec.pipeline_copy_mbps", 7, nil, func() { p.fail("exec.Run", exec.Run(st, 3)) })
	p.out["exec.pipeline_copy_mbps"] = mbps(8*n, d)

	const chunks = 2000
	empty := exec.Stages{NumChunks: chunks, ChunkLen: func(int) int { return 1 },
		CopyIn: nop, Compute: nop, CopyOut: nop, Pool: mem.Pool}
	d = p.time("exec.chunk_overhead_us", 7, nil, func() { p.fail("exec.Run", exec.Run(empty, 3)) })
	p.out["exec.chunk_overhead_us"] = usec(d) / chunks
}

func (p *panel) mlmsort() {
	const n = 4 * mi
	threads := p.e.nproc
	src, xs := genKeys(p.rng, n, orderRandom), make([]int64, n)
	load := func() { copy(xs, src) }

	// Plain and observed runs alternate, so drift in the host's speed
	// lands on both sides of the ratio.
	var plain, observed []float64
	t00 := time.Now()
	for i := 0; i < 4; i++ {
		load()
		t0 := time.Now()
		p.fail("RunReal", mlmsort.RunReal(mlmsort.MLMSort, xs, threads, 512*ki))
		plain = append(plain, float64(time.Since(t0)))
		load()
		rec := telemetry.NewRecorder()
		t0 = time.Now()
		p.fail("RunRealObserved", mlmsort.RunRealObserved(mlmsort.MLMSort, xs, threads, 512*ki, rec))
		observed = append(observed, float64(time.Since(t0)))
	}
	p.tr.add(0, "mlmsort.runreal_4Mi_mbps", p.layer, 0, t00, time.Now())
	p.out["mlmsort.runreal_4Mi_mbps"] = mbps(8*n, time.Duration(median(plain)))
	p.out["telemetry.observed_overhead_frac"] = median(observed)/median(plain) - 1

	d := p.time("mlmsort.runreal_ddr_4Mi_mbps", 3, load, func() {
		p.fail("RunReal ddr", mlmsort.RunReal(mlmsort.MLMDDr, xs, threads, 512*ki))
	})
	p.out["mlmsort.runreal_ddr_4Mi_mbps"] = mbps(8*n, d)

	d = p.time("mlmsort.runreal_1Mi_ms", 7, load, func() {
		p.fail("RunReal 1Mi", mlmsort.RunReal(mlmsort.MLMSort, xs[:mi], threads, stagedMegachunk))
	})
	p.out["mlmsort.runreal_1Mi_ms"] = ms(d)

	// The two halves of a spilled job, apart: phase 1 into run files,
	// then the streaming merge into a sink that discards.
	store, err := spill.NewStore(spill.Config{Dir: p.e.work})
	if err != nil {
		p.fail("spill.NewStore", err)
		return
	}
	defer store.Close()
	opts := mlmsort.ExternalOptions{Store: store, RealOptions: mlmsort.RealOptions{Buffers: 3}}
	ctx := context.Background()
	var spillT, mergeT []float64
	t00 = time.Now()
	for i := 0; i < 3; i++ {
		load()
		t0 := time.Now()
		runs, _, err := mlmsort.SpillSorted(ctx, mlmsort.MLMSort, xs, threads, 512*ki, opts)
		spillT = append(spillT, float64(time.Since(t0)))
		p.fail("SpillSorted", err)
		t0 = time.Now()
		_, err = mlmsort.MergeSpilled(ctx, store, runs, opts, func([]int64) error { return nil })
		mergeT = append(mergeT, float64(time.Since(t0)))
		p.fail("MergeSpilled", err)
		for _, id := range runs {
			store.RemoveRun(id)
		}
	}
	p.tr.add(0, "mlmsort.spillsorted_mbps", p.layer, 0, t00, time.Now())
	p.out["mlmsort.spillsorted_mbps"] = mbps(8*n, time.Duration(median(spillT)))
	p.out["mlmsort.mergespilled_mbps"] = mbps(8*n, time.Duration(median(mergeT)))
}

func (p *panel) spill() {
	const n, block = 8 * mi, 64 * ki
	store, err := spill.NewStore(spill.Config{Dir: p.e.work})
	if err != nil {
		p.fail("spill.NewStore", err)
		return
	}
	defer store.Close()
	src, buf := genKeys(p.rng, block, orderRandom), make([]int64, block)
	d := p.time("spill.write_mbps", 3, nil, func() {
		w, err := store.CreateRun(0)
		if err != nil {
			p.fail("CreateRun", err)
			return
		}
		for off := 0; off < n; off += block {
			if err := w.Append(src); err != nil {
				p.fail("Append", err)
				break
			}
		}
		p.fail("RunWriter.Close", w.Close())
	})
	p.out["spill.write_mbps"] = mbps(8*n, d)
	d = p.time("spill.read_mbps", 3, nil, func() {
		r, err := store.OpenRun(0)
		if err != nil {
			p.fail("OpenRun", err)
			return
		}
		defer r.Close()
		for {
			if _, err := r.Fill(buf); err != nil {
				if err != io.EOF {
					p.fail("Fill", err)
				}
				return
			}
		}
	})
	p.out["spill.read_mbps"] = mbps(8*n, d)
}

func (p *panel) wire() {
	keys, back := genKeys(p.rng, mi, orderRandom), make([]int64, mi)
	enc := make([]byte, 0, wire.EncodedLen(mi, 0))
	d := p.time("wire.encode_mbps", 9, nil, func() { enc = wire.Encode(enc[:0], keys, 0) })
	p.out["wire.encode_mbps"] = mbps(8*mi, d)
	var rd bytes.Reader
	d = p.time("wire.decode_mbps", 9, func() { rd.Reset(enc) }, func() {
		_, err := wire.Decode(&rd, 0, func(n int) []int64 { return back[:n] })
		p.fail("wire.Decode", err)
	})
	p.out["wire.decode_mbps"] = mbps(8*mi, d)
	// io.Discard would time only the 4-byte frame prefixes: on the
	// zero-copy path the writer hands the keys' own memory to Write. A
	// sink that copies, as a socket send does, times the stream.
	sink := &copySink{buf: make([]byte, 0, wire.EncodedLen(mi, 0))}
	d = p.time("wire.writer_stream_mbps", 9, func() { sink.buf = sink.buf[:0] }, func() {
		fw := wire.NewWriter(sink, mi, 0)
		for off := 0; off < mi; off += 8 * ki {
			if err := fw.Write(keys[off : off+8*ki]); err != nil {
				p.fail("wire.Writer", err)
				return
			}
		}
		p.fail("wire.Writer.Close", fw.Close())
	})
	p.out["wire.writer_stream_mbps"] = mbps(8*mi, d)
}

// copySink is an io.Writer that copies what it is given into a buffer
// sized up front.
type copySink struct{ buf []byte }

func (c *copySink) Write(b []byte) (int, error) {
	c.buf = append(c.buf, b...)
	return len(b), nil
}

// nodeConfig mirrors what cmd/mlmserve builds from the workload flags.
func nodeConfig(budgetMB, workers int, reg *telemetry.Registry) sched.Config {
	return sched.Config{
		MCDRAMBudget: units.Bytes(budgetMB) * units.MiB,
		Workers:      workers,
		RetainJobs:   16,
		Registry:     reg,
		Resilience:   telemetry.NewResilience(reg),
	}
}

// stagedMegachunk is the megachunk both the bare mlmsort.RunReal and
// the direct scheduler submit use for the 1Mi job, so their ratio is
// the scheduler's own overhead.
const stagedMegachunk = 256 * ki

func (p *panel) sched() {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	sc, err := sched.New(nodeConfig(64, 2, reg))
	if err != nil {
		p.fail("sched.New", err)
		return
	}
	rejected := 0
	// The scheduler owns a job's buffer until the job leaves retention;
	// a ring longer than retention plus in-flight jobs avoids reuse.
	small := genKeys(p.rng, ki, orderRandom)
	ring := make([][]int64, 64)
	for i := range ring {
		ring[i] = make([]int64, ki)
	}
	var lat, wait []float64
	t00 := time.Now()
	for i := 0; i < 1500; i++ {
		buf := ring[i%len(ring)]
		copy(buf, small)
		t0 := time.Now()
		j, err := sc.Submit(sched.JobSpec{Data: buf})
		if err != nil {
			rejected++
			continue
		}
		p.fail("Job.Wait", j.Wait(ctx))
		lat = append(lat, float64(time.Since(t0)))
		wait = append(wait, float64(j.QueueWait()))
	}
	p.tr.add(0, "sched.submit_wait_1Ki_us", p.layer, 0, t00, time.Now())
	p.out["sched.submit_wait_1Ki_us"] = usec(time.Duration(median(lat)))
	p.out["sched.queue_wait_p50_us"] = usec(time.Duration(median(wait)))

	// Two submitters, each with its own half of the ring, for a fixed time.
	const window = 400 * time.Millisecond
	var wg sync.WaitGroup
	var done [2]int
	t00 = time.Now()
	for g := range done {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Since(t00) < window; i++ {
				buf := ring[g*32+i%32]
				copy(buf, small)
				j, err := sc.Submit(sched.JobSpec{Data: buf})
				if err != nil {
					continue
				}
				if j.Wait(ctx) == nil {
					done[g]++
				}
			}
		}()
	}
	wg.Wait()
	p.tr.add(0, "sched.small_jobs_per_s", p.layer, 0, t00, time.Now())
	p.out["sched.small_jobs_per_s"] = float64(done[0]+done[1]) / time.Since(t00).Seconds()

	big := genKeys(p.rng, mi, orderRandom)
	staged := func(sc *sched.Scheduler, metric string, jobs int, drain bool) (total, run time.Duration) {
		var tot, runs []float64
		t00 := time.Now()
		for i := 0; i < jobs; i++ {
			buf := slices.Clone(big)
			t0 := time.Now()
			j, err := sc.Submit(sched.JobSpec{Data: buf, MegachunkLen: stagedMegachunk})
			if err != nil {
				rejected++
				continue
			}
			p.fail("Job.Wait", j.Wait(ctx))
			tot = append(tot, float64(time.Since(t0)))
			_, started, finished := j.Times()
			runs = append(runs, float64(finished.Sub(started)))
			if drain {
				_, err := j.StreamResult(ctx, func([]int64) error { return nil })
				p.fail("StreamResult", err)
			}
		}
		p.tr.add(0, metric, p.layer, 0, t00, time.Now())
		return time.Duration(median(tot)), time.Duration(median(runs))
	}
	drift := func(sc *sched.Scheduler, run time.Duration, spilled bool) float64 {
		est := tune.EstimateService(sc.Rates(), 8*mi, sc.TotalThreads(), spilled, sc.DiskRate()).Total()
		if est <= 0 {
			return 0
		}
		return run.Seconds() / est.Seconds()
	}
	total, run := staged(sc, "sched.staged_1Mi_ms", 7, false)
	p.out["sched.staged_1Mi_ms"] = ms(total)
	if base := p.out["mlmsort.runreal_1Mi_ms"]; base > 0 {
		p.out["sched.staged_overhead_frac"] = ms(total)/base - 1
	}
	p.out["tune.estimate_drift_staged"] = drift(sc, run, false)
	shed := int64(0)
	for _, n := range sc.ShedTotals() {
		shed += n
	}
	sc.Close()

	// The same job through the spill class.
	sreg := telemetry.NewRegistry()
	cfg := nodeConfig(64, 2, sreg)
	cfg.DDRBudget, cfg.DiskBudget, cfg.SpillDir = 4*units.MiB, 512*units.MiB, p.e.work
	ssc, err := sched.New(cfg)
	if err != nil {
		p.fail("sched.New (spill)", err)
		return
	}
	const spillJobs = 4
	_, run = staged(ssc, "tune.estimate_drift_spill", spillJobs, true)
	p.out["tune.estimate_drift_spill"] = drift(ssc, run, true)
	for _, n := range ssc.ShedTotals() {
		shed += n
	}
	ssc.Close()
	p.out["spill.bytes_written_per_job"] = family(scrapeRegistry(sreg), "sched_spill_bytes_written_total") / spillJobs
	p.out["sched.rejected"] = float64(rejected)
	p.out["sched.shed"] = float64(shed)
}

// node is an in-process mlmserve: serve.New over its own scheduler,
// behind an httptest listener.
type node struct {
	sc  *sched.Scheduler
	reg *telemetry.Registry
	ts  *httptest.Server
}

func newNode(budgetMB, workers int) (*node, error) {
	reg := telemetry.NewRegistry()
	cfg := nodeConfig(budgetMB, workers, reg)
	cfg.KeyPool = mem.NewSlicePool()
	sc, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Scheduler: sc, Registry: reg})
	if err != nil {
		sc.Close()
		return nil, err
	}
	return &node{sc: sc, reg: reg, ts: httptest.NewServer(srv)}, nil
}

func (n *node) close() {
	n.ts.Close()
	n.sc.Close()
}

func (p *panel) serveAndCluster() {
	hc := &http.Client{Transport: newTransport(1)}
	defer hc.CloseIdleConnections()
	nd, err := newNode(64, 2)
	if err != nil {
		p.fail("serve node", err)
		return
	}
	c := newClient(hc, nd.ts.URL, 0, mi, expectation{})
	// jobs runs n jobs of one input and returns the median whole-job,
	// submit and download times.
	jobs := func(c *client, metric string, in *input, n int) (job, submit, download time.Duration) {
		var js, ss, ds []float64
		t00 := time.Now()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			stamp, err := c.do(in)
			if err != nil {
				p.fail(metric, err)
				continue
			}
			js = append(js, float64(stamp.Sub(t0)))
			ss = append(ss, float64(c.lastSubmit))
			ds = append(ds, float64(c.lastDownload))
		}
		p.tr.add(0, metric, p.layer, 0, t00, time.Now())
		return time.Duration(median(js)), time.Duration(median(ss)), time.Duration(median(ds))
	}
	small := newInput(p.rng, wire.KindInt64, orderRandom, ki, false, false, false)
	job, _, _ := jobs(c, "serve.roundtrip_1Ki_us", small, 600)
	p.out["serve.roundtrip_1Ki_us"] = usec(job)
	p.out["serve.http_overhead_1Ki_us"] = usec(job) - p.out["sched.submit_wait_1Ki_us"]

	big := newInput(p.rng, wire.KindInt64, orderRandom, mi, false, false, false)
	direct, submit, download := jobs(c, "serve.submit_1Mi_ms", big, 7)
	p.out["serve.submit_1Mi_ms"] = ms(submit)
	p.out["serve.download_1Mi_mbps"] = mbps(8*mi, download)

	mid := newInput(p.rng, wire.KindInt64, orderRandom, 64*ki, true, false, false)
	_, submit, download = jobs(c, "serve.submit_json_64Ki_ms", mid, 9)
	p.out["serve.submit_json_64Ki_ms"] = ms(submit)
	p.out["serve.download_json_64Ki_mbps"] = mbps(8*64*ki, download)

	d := p.time("serve.metrics_scrape_ms", 15, nil, func() {
		_, err := httpGet(hc, nd.ts.URL+"/metrics")
		p.fail("GET /metrics", err)
	})
	p.out["serve.metrics_scrape_ms"] = ms(d)
	nd.close()

	// The coordinator over two in-process nodes.
	p.layer = "layer:cluster"
	t0 := time.Now()
	defer func() { p.tr.add(0, p.layer, "", 0, t0, time.Now()) }()
	var urls []string
	for i := 0; i < 2; i++ {
		b, err := newNode(32, 1)
		if err != nil {
			p.fail("cluster backend", err)
			return
		}
		defer b.close()
		urls = append(urls, b.ts.URL)
	}
	coord, err := cluster.New(cluster.Config{Backends: urls, RetainJobs: 16, Seed: 1})
	if err != nil {
		p.fail("cluster.New", err)
		return
	}
	defer coord.Close()
	csrv, err := cluster.NewServer(cluster.ServerConfig{Coordinator: coord})
	if err != nil {
		p.fail("cluster.NewServer", err)
		return
	}
	ts := httptest.NewServer(csrv)
	defer ts.Close()
	if err := waitBackendsUp(hc, ts.URL, 2); err != nil {
		p.fail("cluster", err)
		return
	}
	cc := newClient(hc, ts.URL, 0, mi, expectation{minParts: 2})
	const clusterJobs = 7
	job, _, _ = jobs(cc, "cluster.job_1Mi_ms", big, clusterJobs)
	p.out["cluster.job_1Mi_ms"] = ms(job)
	if direct > 0 {
		p.out["cluster.overhead_ratio"] = job.Seconds() / direct.Seconds()
	}
	m := scrapeRegistry(coord.Registry())
	done := family(m, "cluster_jobs_total")
	if done > 0 {
		p.out["cluster.partitions_per_job"] = family(m, "cluster_partitions_total") / done
		p.out["cluster.merge_stall_ms_per_job"] = family(m, "cluster_merge_stall_seconds_total") * 1e3 / done
	}
	p.out["cluster.partition_retries"] = family(m, "cluster_partition_retries_total")
}

// scrapeRegistry renders a registry as Prometheus text and parses it
// back: the same path an operator's scrape takes.
func scrapeRegistry(reg *telemetry.Registry) map[string]float64 {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil
	}
	return parseProm(&b)
}

// parseProm reads Prometheus text exposition into series -> value.
func parseProm(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// family sums every series of one metric family, whatever its labels.
func family(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// perLayerNames lists every per-layer metric with its unit, in print
// order; BENCHMARK.json's per_layer section is this list.
var perLayerNames = []struct{ name, unit, better string }{
	{"host.copy_mbps", "MB/s", "higher"},
	{"host.triad_mbps", "MB/s", "higher"},
	{"host.serial_sort_mbps", "MB/s", "higher"},
	{"psort.radix_i64_1Mi_mbps", "MB/s", "higher"},
	{"psort.radix_i64_8Mi_mbps", "MB/s", "higher"},
	{"psort.mergek8_random_mbps", "MB/s", "higher"},
	{"psort.mergek8_blocky_mbps", "MB/s", "higher"},
	{"psort.merge2_random_mbps", "MB/s", "higher"},
	{"psort.adaptive_reverse_1Mi_mbps", "MB/s", "higher"},
	{"psort.sort_f64_1Mi_mbps", "MB/s", "higher"},
	{"psort.sort_rec_1Mi_mbps", "MB/s", "higher"},
	{"psort.allocs_per_sort", "count", "lower"},
	{"exec.pipeline_copy_mbps", "MB/s", "higher"},
	{"exec.chunk_overhead_us", "us", "lower"},
	{"mlmsort.runreal_4Mi_mbps", "MB/s", "higher"},
	{"mlmsort.runreal_ddr_4Mi_mbps", "MB/s", "higher"},
	{"mlmsort.runreal_1Mi_ms", "ms", "lower"},
	{"mlmsort.spillsorted_mbps", "MB/s", "higher"},
	{"mlmsort.mergespilled_mbps", "MB/s", "higher"},
	{"spill.write_mbps", "MB/s", "higher"},
	{"spill.read_mbps", "MB/s", "higher"},
	{"spill.bytes_written_per_job", "count", "lower"},
	{"wire.encode_mbps", "MB/s", "higher"},
	{"wire.decode_mbps", "MB/s", "higher"},
	{"wire.writer_stream_mbps", "MB/s", "higher"},
	{"sched.submit_wait_1Ki_us", "us", "lower"},
	{"sched.small_jobs_per_s", "1/s", "higher"},
	{"sched.queue_wait_p50_us", "us", "lower"},
	{"sched.staged_1Mi_ms", "ms", "lower"},
	{"sched.staged_overhead_frac", "ratio", "lower"},
	{"sched.rejected", "count", "lower"},
	{"sched.shed", "count", "lower"},
	{"tune.estimate_drift_staged", "ratio", "lower"},
	{"tune.estimate_drift_spill", "ratio", "lower"},
	{"serve.roundtrip_1Ki_us", "us", "lower"},
	{"serve.http_overhead_1Ki_us", "us", "lower"},
	{"serve.submit_1Mi_ms", "ms", "lower"},
	{"serve.download_1Mi_mbps", "MB/s", "higher"},
	{"serve.submit_json_64Ki_ms", "ms", "lower"},
	{"serve.download_json_64Ki_mbps", "MB/s", "higher"},
	{"serve.metrics_scrape_ms", "ms", "lower"},
	{"cluster.job_1Mi_ms", "ms", "lower"},
	{"cluster.overhead_ratio", "ratio", "lower"},
	{"cluster.partitions_per_job", "count", "lower"},
	{"cluster.partition_retries", "count", "lower"},
	{"cluster.merge_stall_ms_per_job", "ms", "lower"},
	{"telemetry.observed_overhead_frac", "ratio", "lower"},
	{"trace.job_ms", "ms", "lower"},
	{"trace.submit_ms", "ms", "lower"},
	{"trace.download_ms", "ms", "lower"},
	{"trace.verify_ms", "ms", "lower"},
	{"trace.self_ms", "ms", "lower"},
	{"bench.late_p90_ms", "ms", "lower"},
	{"bench.client_cpu_frac", "ratio", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.panel_steal_frac", "ratio", "lower"},
}
