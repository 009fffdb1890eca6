package sched

import (
	"context"
	"errors"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/fault"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/model"
	"knlmlm/internal/spill"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// spillRootEntries lists the scheduler's spill root minus its own
// bookkeeping (the owner liveness marker): what remains is run stores,
// which the emptiness assertions are about.
func spillRootEntries(t *testing.T, s *Scheduler) []string {
	t.Helper()
	ents, err := os.ReadDir(s.spillRoot)
	if err != nil {
		t.Fatalf("read spill root: %v", err)
	}
	var names []string
	for _, e := range ents {
		if e.Name() == spill.OwnerMarkerName {
			continue
		}
		names = append(names, e.Name())
	}
	return names
}

// spillTestSeed returns the deterministic default seed, overridable with
// SCHED_SPILL_TEST_SEED to replay a reported failure, and arranges for
// the seed to be logged if the test fails.
func spillTestSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if v := os.Getenv("SCHED_SPILL_TEST_SEED"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("SCHED_SPILL_TEST_SEED=%q: %v", v, err)
		}
		seed = p
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed=%d", seed)
		}
	})
	return seed
}

// spillTestConfig builds a scheduler config whose DDR budget forces any
// staged job over ~38k elements into the spill class.
func spillTestConfig(t *testing.T) Config {
	cfg := testConfig()
	cfg.DDRBudget = 600 << 10
	cfg.DiskBudget = 4 << 20
	cfg.SpillDir = t.TempDir()
	return cfg
}

// drainStream collects a StreamResult into one slice, asserting batch
// boundaries keep the stream nondecreasing.
func drainStream(t *testing.T, j *Job) []int64 {
	t.Helper()
	var out []int64
	n, err := j.StreamResult(context.Background(), func(batch []int64) error {
		out = append(out, batch...)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamResult: %v", err)
	}
	if int(n) != len(out) {
		t.Fatalf("StreamResult count %d, sink received %d", n, len(out))
	}
	return out
}

// TestSpillJobStreamsIdentical is the acceptance-path test: a job over
// the DDR working-set budget is admitted into the spill class instead of
// rejected, completes through the scheduler, and its streamed result is
// byte-identical to the in-memory path's, with every disk-tier resource
// released after consumption.
func TestSpillJobStreamsIdentical(t *testing.T) {
	seed := spillTestSeed(t)
	reg := telemetry.NewRegistry()
	cfg := spillTestConfig(t)
	cfg.Registry = reg
	s := newTestScheduler(t, cfg)

	// Large enough that even the spill class's MCDRAM-maximized megachunks
	// (capped at half of maxMc = 64Ki elements under the 4 MiB test
	// budget) need at least three runs to cover it.
	const n = 400000
	data := workload.Generate(workload.Random, n, seed)
	want := append([]int64(nil), data...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	j, err := s.Submit(JobSpec{Data: data})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !j.Spilled() {
		t.Fatalf("job over DDR budget (%d elems) not classed as spill", n)
	}
	waitDone(t, j)
	if j.State() != Done {
		t.Fatalf("state = %v (%v), want Done", j.State(), j.Err())
	}
	if _, err := j.Result(); !errors.Is(err, ErrSpilled) {
		t.Fatalf("Result on spilled job = %v, want ErrSpilled", err)
	}
	if got := j.DiskLeaseBytes(); got != int64(n*8) {
		t.Fatalf("DiskLeaseBytes = %d, want %d", got, n*8)
	}
	if got := s.DiskBudget().Leased(); got == 0 {
		t.Fatal("disk ledger shows nothing leased while runs are held")
	}

	got := drainStream(t, j)
	if len(got) != n {
		t.Fatalf("streamed %d elements, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("streamed[%d] = %d, in-memory sort gives %d", i, got[i], want[i])
		}
	}

	// Stream-once: the merge consumed the runs.
	if _, err := j.StreamResult(context.Background(), func([]int64) error { return nil }); !errors.Is(err, ErrResultConsumed) {
		t.Fatalf("second StreamResult = %v, want ErrResultConsumed", err)
	}
	if got := s.DiskBudget().Leased(); got != 0 {
		t.Fatalf("disk leased %v after stream, want 0", got)
	}
	if ents := spillRootEntries(t, s); len(ents) != 0 {
		t.Fatalf("spill root still holds %d entries after stream: %v", len(ents), ents)
	}
	if v := reg.Counter("sched_spill_jobs_total", "", nil).Value(); v != 1 {
		t.Fatalf("sched_spill_jobs_total = %d, want 1", v)
	}
	if v := reg.Counter("sched_spill_runs_total", "", nil).Value(); v < 3 {
		t.Fatalf("sched_spill_runs_total = %d, want >= 3 (out-of-core must mean multiple runs)", v)
	}
	if v := reg.Counter("sched_spill_bytes_written_total", "", nil).Value(); v != int64(n*8) {
		t.Fatalf("sched_spill_bytes_written_total = %d, want %d", v, n*8)
	}

	// A staged job under the DDR budget keeps the in-memory path.
	small, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 35000, seed+1)})
	if err != nil {
		t.Fatalf("Submit small: %v", err)
	}
	if small.Spilled() {
		t.Fatal("under-DDR staged job classed as spill")
	}
	waitDone(t, small)
	mustSorted(t, small)
}

// fillProbe is an IOFaults that never fails anything: it records the
// peak number of run-file fills inside the store at once, which is the
// read-ahead width the download merge really ran with (MergeSpilled holds
// a fill slot across each Fill). The first reads linger so that fills the
// merge would allow to overlap do overlap.
type fillProbe struct {
	mu                    sync.Mutex
	reads, inflight, peak int
}

func (p *fillProbe) FailWrite(int) bool { return false }

func (p *fillProbe) FailRead(int) bool {
	p.mu.Lock()
	p.reads++
	p.inflight++
	p.peak = max(p.peak, p.inflight)
	linger := p.reads <= 16
	p.mu.Unlock()
	if linger {
		time.Sleep(500 * time.Microsecond)
	}
	p.mu.Lock()
	p.inflight--
	p.mu.Unlock()
	return false
}

// TestSpillStreamMergeOneFill pins the width of a spill job's download
// merge: one run-file fill at a time, over several runs.
func TestSpillStreamMergeOneFill(t *testing.T) {
	probe := &fillProbe{}
	reg := telemetry.NewRegistry()
	cfg := spillTestConfig(t)
	cfg.IOFaults, cfg.Registry = probe, reg
	s := newTestScheduler(t, cfg)
	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 400000, 23)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	if got := drainStream(t, j); !workload.IsSorted(got) || len(got) != 400000 {
		t.Fatalf("streamed %d elements, sorted %v", len(got), workload.IsSorted(got))
	}
	if runs := reg.Counter("sched_spill_runs_total", "", nil).Value(); runs < 3 {
		t.Fatalf("%d runs: the merge needs a fan-in to show its width", runs)
	}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if probe.reads == 0 || probe.peak != 1 {
		t.Fatalf("download merge ran %d fills at once over %d reads, want 1", probe.peak, probe.reads)
	}
}

// TestRatesStayTable2 pins what the scheduler prices with: the paper's
// Table 2, before and after an in-place, a named MLM-sort and a spill job.
func TestRatesStayTable2(t *testing.T) {
	s := newTestScheduler(t, spillTestConfig(t))
	if got := s.Rates(); got != model.PaperTable2() {
		t.Fatalf("fresh Rates() = %+v, want Table 2", got)
	}
	for _, spec := range []JobSpec{
		{Data: workload.Generate(workload.Random, 20000, 1)},
		{Data: workload.Generate(workload.Random, 20000, 2), Algorithm: mlmsort.MLMSort},
		{Data: workload.Generate(workload.Random, 60000, 3)},
	} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
		if j.State() != Done {
			t.Fatalf("job %s: %v (%v)", j.ID(), j.State(), j.Err())
		}
	}
	if got := s.Rates(); got != model.PaperTable2() {
		t.Fatalf("Rates() after jobs = %+v, want Table 2", got)
	}
}

// TestSpillAdmissionRejections pins the TooLargeError tiers: over-DDR
// with no disk budget rejects on DDR; over-DDR with a disk budget too
// small for the run files rejects on disk.
func TestSpillAdmissionRejections(t *testing.T) {
	cfg := testConfig()
	cfg.DDRBudget = 600 << 10
	s := newTestScheduler(t, cfg)
	_, err := s.Submit(JobSpec{Data: make([]int64, 60000)})
	var te *TooLargeError
	if !errors.As(err, &te) || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("no-disk over-DDR submit = %v, want TooLargeError", err)
	}
	if te.Resource != "DDR" {
		t.Fatalf("binding tier = %q, want DDR", te.Resource)
	}

	cfg2 := testConfig()
	cfg2.DDRBudget = 600 << 10
	cfg2.DiskBudget = 64 << 10 // far below the 480000-byte run footprint
	cfg2.SpillDir = t.TempDir()
	s2 := newTestScheduler(t, cfg2)
	_, err = s2.Submit(JobSpec{Data: make([]int64, 60000)})
	if !errors.As(err, &te) || te.Resource != "disk" {
		t.Fatalf("tiny-disk over-DDR submit = %v (tier %q), want disk TooLargeError", err, te.Resource)
	}
}

// TestSpillCancelReleasesDisk cancels a spill job mid-phase-1 and asserts
// the run files and the disk lease are reclaimed on the abort path.
func TestSpillCancelReleasesDisk(t *testing.T) {
	g := newGate()
	cfg := spillTestConfig(t)
	cfg.Wrap = g.wrap()
	s := newTestScheduler(t, cfg)
	defer g.open()

	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 60000, 7)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	eventually(t, "spill job running", func() bool { return j.State() == Running })
	j.Cancel()
	g.open()
	waitDone(t, j)
	if j.State() != Canceled {
		t.Fatalf("state = %v, want Canceled", j.State())
	}
	if got := s.DiskBudget().Leased(); got != 0 {
		t.Fatalf("disk leased %v after cancel, want 0", got)
	}
	if ents := spillRootEntries(t, s); len(ents) != 0 {
		t.Fatalf("spill root holds %d entries after cancel: %v", len(ents), ents)
	}
}

// TestSpillSinkErrorReleasesDisk aborts the stream mid-merge (the
// disconnecting-client shape) and asserts the run files and disk lease
// are still released, with the result marked consumed.
func TestSpillSinkErrorReleasesDisk(t *testing.T) {
	s := newTestScheduler(t, spillTestConfig(t))
	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 60000, 11)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	boom := errors.New("client went away")
	if _, err := j.StreamResult(context.Background(), func([]int64) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("StreamResult = %v, want sink error", err)
	}
	if _, err := j.StreamResult(context.Background(), func([]int64) error { return nil }); !errors.Is(err, ErrResultConsumed) {
		t.Fatalf("retry after abort = %v, want ErrResultConsumed", err)
	}
	if got := s.DiskBudget().Leased(); got != 0 {
		t.Fatalf("disk leased %v after aborted stream, want 0", got)
	}
	if ents := spillRootEntries(t, s); len(ents) != 0 {
		t.Fatalf("spill root holds %d entries after aborted stream: %v", len(ents), ents)
	}
}

// TestSpillUnclaimedReleasedOnClose proves shutdown leaves no run files:
// a completed-but-never-streamed spill job's store dies with the
// scheduler, and the spill root itself is removed.
func TestSpillUnclaimedReleasedOnClose(t *testing.T) {
	cfg := spillTestConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 60000, 13)})
	if err != nil {
		s.Close()
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	root := s.spillRoot
	s.Close()
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Fatalf("spill root survives Close (stat err %v)", err)
	}
	if _, err := j.StreamResult(context.Background(), func([]int64) error { return nil }); !errors.Is(err, ErrResultConsumed) {
		t.Fatalf("StreamResult after Close = %v, want ErrResultConsumed", err)
	}
}

// TestSpillEvictionReclaimsDisk retires spilled jobs past the retention
// window and asserts eviction releases their disk leases.
func TestSpillEvictionReclaimsDisk(t *testing.T) {
	cfg := spillTestConfig(t)
	cfg.RetainJobs = 1
	s := newTestScheduler(t, cfg)

	first, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 60000, 17)})
	if err != nil {
		t.Fatalf("Submit first: %v", err)
	}
	waitDone(t, first)
	if got := s.DiskBudget().Leased(); got == 0 {
		t.Fatal("first job holds no disk lease while unstreamed")
	}
	second, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 60000, 19)})
	if err != nil {
		t.Fatalf("Submit second: %v", err)
	}
	waitDone(t, second)
	// Retention holds one job: finishing the second evicted the first,
	// which must have released its lease and run files.
	eventually(t, "evicted job's disk lease reclaimed", func() bool {
		return s.DiskBudget().Leased() == units.Bytes(60000*8)
	})
	got := drainStream(t, second)
	if len(got) != 60000 {
		t.Fatalf("second job streamed %d elements", len(got))
	}
	if leased := s.DiskBudget().Leased(); leased != 0 {
		t.Fatalf("disk leased %v after both jobs resolved, want 0", leased)
	}
}

// TestSpillSurvivesInjectedIOFaults runs a spill job under injected
// run-file write and read faults sized within the retry budget: the job
// must complete and stream a correct result, and the injector must have
// actually fired.
func TestSpillSurvivesInjectedIOFaults(t *testing.T) {
	seed := spillTestSeed(t)
	inj := fault.MustNewInjector(seed,
		fault.Spec{Stage: exec.StageCopyOut, Kind: fault.IOFail, Rate: 1, PerChunkHits: 1},
		fault.Spec{Stage: exec.StageCopyIn, Kind: fault.IOFail, Rate: 1, PerChunkHits: 1},
	)
	cfg := spillTestConfig(t)
	cfg.IOFaults = inj
	cfg.Retry = exec.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
	s := newTestScheduler(t, cfg)

	const n = 60000
	data := workload.Generate(workload.Random, n, seed)
	want := append([]int64(nil), data...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	j, err := s.Submit(JobSpec{Data: data})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	if j.State() != Done {
		t.Fatalf("faulted spill job: %v (%v)", j.State(), j.Err())
	}
	got := drainStream(t, j)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("faulted stream diverges at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if inj.Counts()[fault.IOFail] == 0 {
		t.Fatal("rate-1 IO fault specs never fired")
	}
	if leased := s.DiskBudget().Leased(); leased != 0 {
		t.Fatalf("disk leased %v after faulted job streamed, want 0", leased)
	}
}
