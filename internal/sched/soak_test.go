package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knlmlm/internal/fault"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// soakSeed returns the soak's master seed — deterministic by default,
// overridable with SCHED_SOAK_SEED to replay a failure — and arranges
// for it to be logged whenever the test fails, so a red nightly run is
// reproducible from its output alone.
func soakSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if v := os.Getenv("SCHED_SOAK_SEED"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("SCHED_SOAK_SEED=%q: %v", v, err)
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

// soakScale reads the SCHED_SOAK_SCALE multiplier (nightly CI runs the
// soak longer than tier-1 by setting it above 1).
func soakScale(t *testing.T) int {
	v := os.Getenv("SCHED_SOAK_SCALE")
	if v == "" {
		return 1
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("SCHED_SOAK_SCALE=%q: want a positive integer", v)
	}
	return n
}

// TestSchedulerSoak drives the scheduler with randomized sizes,
// priorities, deadlines, and cancellations — under an injected-fault
// chaos plan — while a sampler continuously asserts the MCDRAM
// invariants:
//
//   - total leased bytes never exceed the budget (and neither does the
//     scratch pool's footprint),
//   - sustained high-priority traffic never starves lower priorities,
//   - canceling a queued job never leaks a lease.
//
// The storm's spill-class jobs may all be refused or shed by brownout,
// which is overload control doing its job; so once the storm has drained
// and brownout is back to normal, a fixed batch of spill-class jobs runs
// under the same fault plan, and each of them must finish and stream
// sorted.
//
// Run with -race; the test is sized to stay in tier-1 time budgets
// (SCHED_SOAK_SCALE lengthens it for nightly runs, SCHED_SOAK_SEED
// replays a failure).
func TestSchedulerSoak(t *testing.T) {
	const (
		budget     = units.Bytes(2 << 20)
		ddrBudget  = units.Bytes(600 << 10)
		diskBudget = units.Bytes(64 << 20)
		clients    = 4
	)
	seed := soakSeed(t)
	perClient := 30 * soakScale(t)
	plan := fault.NewPlan(seed, units.Bytes(512<<10))
	reg := telemetry.NewRegistry()
	res := telemetry.NewResilience(reg)
	rig := plan.Rig(res)
	inj := rig.Injector
	s, err := New(Config{
		MCDRAMBudget: budget,
		Workers:      3,
		QueueLimit:   256,
		TotalThreads: 8,
		AgingSlack:   25 * time.Millisecond,
		Registry:     reg,
		Resilience:   res,
		Policy:       rig.Policy,
		// A ring far smaller than the job count, so the soak exercises
		// eviction under concurrent submission.
		FlightRecorderCap: 48,
		// Spill tier: jobs past ~38k elements take the three-level path,
		// under the plan's injected run-file write/read faults.
		DDRBudget:  ddrBudget,
		DiskBudget: diskBudget,
		SpillDir:   t.TempDir(),
		IOFaults:   inj,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	// Invariant sampler: runs the whole soak, polling the ledger and pool.
	stop := make(chan struct{})
	var violations atomic.Int32
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if leased := s.Budget().Leased(); leased > budget {
				violations.Add(1)
				t.Errorf("leased %v exceeds budget %v", leased, budget)
				return
			}
			if fp := s.pool.FootprintBytes(); fp > int64(budget) {
				violations.Add(1)
				t.Errorf("pool footprint %d exceeds budget %v", fp, budget)
				return
			}
			if dl := s.DiskBudget().Leased(); dl > diskBudget {
				violations.Add(1)
				t.Errorf("disk leased %v exceeds disk budget %v", dl, diskBudget)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	type submitted struct {
		j         *Job
		canceled  bool
		wasQueued bool
		// batch marks the post-storm spill batch, which must all finish.
		batch bool
	}
	var mu sync.Mutex
	var all []submitted

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(1000+c)))
			for i := 0; i < perClient; i++ {
				n := 200 + rng.Intn(60000) // mixes small, in-memory and spill
				spec := JobSpec{
					Data:     workload.Generate(workload.Random, n, rng.Int63()),
					Priority: rng.Intn(7) - 2,
				}
				if rng.Intn(8) == 0 {
					spec.Deadline = time.Now().Add(time.Duration(50+rng.Intn(400)) * time.Millisecond)
				}
				j, err := s.Submit(spec)
				if err != nil {
					// Backpressure is a legal soak outcome, but only the
					// typed retryable classes.
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("client %d: unexpected submit error %v", c, err)
						return
					}
					time.Sleep(2 * time.Millisecond)
					continue
				}
				rec := submitted{j: j}
				if rng.Intn(6) == 0 {
					rec.wasQueued = j.State() == Queued
					j.Cancel()
					rec.canceled = true
				}
				mu.Lock()
				all = append(all, rec)
				mu.Unlock()
				if rng.Intn(3) == 0 {
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	// The storm is over once every job it admitted is terminal and
	// brownout has stepped back down to normal.
	stormOver := func() bool {
		for _, rec := range all {
			if !rec.j.State().Terminal() {
				return false
			}
		}
		return s.BrownoutLevel() == BrownoutNormal
	}
	calm := time.Now().Add(60 * time.Second)
	for !stormOver() {
		if time.Now().After(calm) {
			t.Fatalf("storm not over after 60s: brownout %v", s.BrownoutLevel())
		}
		time.Sleep(10 * time.Millisecond)
	}
	const spillBatch = 4
	for i := 0; i < spillBatch; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 48000, seed+int64(i))})
		if err != nil {
			t.Fatalf("spill batch %d: %v", i, err)
		}
		waitDone(t, j)
		all = append(all, submitted{j: j, batch: true})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	close(stop)
	sampler.Wait()
	if violations.Load() > 0 {
		t.Fatal("budget invariant violated during soak")
	}

	mu.Lock()
	defer mu.Unlock()
	var done, failed, canceled, spilled int
	for _, rec := range all {
		if !rec.j.State().Terminal() {
			t.Fatalf("job %s not terminal after drain: %v", rec.j.ID(), rec.j.State())
		}
		// Every job that was dispatched has let go of its run context (one
		// resolved in the queue never had one).
		if ctx := rec.j.runCtx; ctx != nil {
			eventually(t, "run context of "+rec.j.ID()+" cancelled", func() bool { return ctx.Err() != nil })
		}
		if rec.batch && (rec.j.State() != Done || !rec.j.Spilled()) {
			t.Fatalf("spill batch job %s: %v (%v), spilled %v; want done and spilled",
				rec.j.ID(), rec.j.State(), rec.j.Err(), rec.j.Spilled())
		}
		switch rec.j.State() {
		case Done:
			done++
			if rec.j.Spilled() {
				spilled++
				last := int64(math.MinInt64)
				n, err := rec.j.StreamResult(context.Background(), func(batch []int64) error {
					for _, v := range batch {
						if v < last {
							t.Errorf("job %s streamed out of order", rec.j.ID())
						}
						last = v
					}
					return nil
				})
				if err != nil {
					t.Fatalf("spilled job %s stream: %v", rec.j.ID(), err)
				}
				if int(n) != rec.j.N() {
					t.Fatalf("job %s streamed %d of %d elements", rec.j.ID(), n, rec.j.N())
				}
				break
			}
			out, err := rec.j.Result()
			if err != nil {
				t.Fatalf("done job %s: %v", rec.j.ID(), err)
			}
			if !workload.IsSorted(out) {
				t.Fatalf("job %s output not sorted", rec.j.ID())
			}
		case Canceled:
			canceled++
			// A job canceled while still queued must never have held a
			// lease — that is the leak the ledger design rules out.
			if rec.canceled && rec.wasQueued && rec.j.LeaseBytes() != 0 {
				t.Fatalf("queued-then-canceled job %s leased %d bytes", rec.j.ID(), rec.j.LeaseBytes())
			}
		case Failed:
			failed++
			// The chaos plan is survivable by construction; the only
			// legitimate failures are overload control's: a queued deadline
			// expiring or the scheduler shedding the job (brownout,
			// infeasible deadline).
			if !errors.Is(rec.j.Err(), ErrDeadlineExpired) && !errors.Is(rec.j.Err(), ErrShed) {
				t.Fatalf("job %s failed unexpectedly: %v", rec.j.ID(), rec.j.Err())
			}
		}
	}
	if done == 0 {
		t.Fatal("soak completed no jobs")
	}
	t.Logf("soak: %d done (%d spilled), %d canceled, %d deadline-failed, %d injected faults, high water %v / %v, disk high water %v / %v",
		done, spilled, canceled, failed, inj.Total(), s.Budget().HighWater(), budget,
		s.DiskBudget().HighWater(), diskBudget)
	if spilled == 0 {
		t.Fatal("soak exercised no spill-class jobs")
	}

	if got := s.Budget().Leased(); got != 0 {
		t.Fatalf("leased %v after drain, want 0", got)
	}
	if got := s.DiskBudget().Leased(); got != 0 {
		t.Fatalf("disk leased %v after all results streamed, want 0", got)
	}
	// The staging pool's ledger closes too: every buffer a pipeline drew
	// (cancelled, failed and abandoned ones included) was returned or
	// written off, so what the pool still charges is what it holds.
	if fp, free := s.pool.FootprintBytes(), s.pool.FreeBytes(); fp != free {
		t.Fatalf("pool footprint %d at quiescence, freelists hold %d: %d bytes leaked", fp, free, fp-free)
	}
	// A chaos node counts what it injects, beside the retries it caused.
	if got := res.FaultsInjected(); got == 0 || got != inj.Total() {
		t.Fatalf("faults_injected_total = %d, injector tally %d: want equal and > 0", got, inj.Total())
	}

	// Flight-recorder invariants after the full concurrent soak: the ring
	// never outgrew its capacity, every admitted job was added exactly
	// once (len + evicted accounts for all of them), and the surviving
	// traces are terminal with a wall-phase decomposition that explains
	// their latency.
	fr := s.FlightRecorder()
	if fr.Len() > fr.Cap() {
		t.Fatalf("flight recorder holds %d traces, cap %d", fr.Len(), fr.Cap())
	}
	if got := fr.Evicted() + int64(fr.Len()); got != int64(len(all)) {
		t.Fatalf("ring accounts for %d traces (%d live + %d evicted), admitted %d",
			got, fr.Len(), fr.Evicted(), len(all))
	}
	for _, tr := range fr.Snapshot() {
		snap := tr.Snapshot()
		if snap.State == "" {
			t.Fatalf("trace %s not terminal after drain", snap.ID)
		}
		var wallSum float64
		for _, p := range telemetry.WallPhases() {
			wallSum += snap.PhasesMS[p.String()]
		}
		if snap.TotalMS > 0 && math.Abs(wallSum-snap.TotalMS) > 0.1*snap.TotalMS {
			t.Fatalf("trace %s: wall phases %.3fms vs total %.3fms", snap.ID, wallSum, snap.TotalMS)
		}
	}
	// Exactly the ring's residents resolve by id; every evicted job's id
	// misses (the /debug/jobs/{id}/trace 404 contract).
	resolved := 0
	for _, rec := range all {
		if fr.Get(rec.j.ID()) != nil {
			resolved++
		}
	}
	if resolved != fr.Len() {
		t.Fatalf("%d of %d admitted ids resolve in the ring, ring holds %d", resolved, len(all), fr.Len())
	}
}

// TestSoakPriorityNoStarvation keeps a stream of high-priority jobs
// flowing while low-priority jobs are in the queue and asserts every
// low-priority job completes well before the stream ends.
func TestSoakPriorityNoStarvation(t *testing.T) {
	s, err := New(Config{
		MCDRAMBudget: 2 << 20,
		Workers:      1,
		QueueLimit:   512,
		TotalThreads: 4,
		AgingSlack:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	var lows []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 2000, int64(i)), Priority: -3})
		if err != nil {
			t.Fatalf("low %d: %v", i, err)
		}
		lows = append(lows, j)
	}
	// Sustained higher-priority traffic for ~40 aging slacks.
	deadline := time.Now().Add(400 * time.Millisecond)
	rng := rand.New(rand.NewSource(42))
	for time.Now().Before(deadline) {
		_, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 1000+rng.Intn(2000), rng.Int63()), Priority: 9})
		if err != nil && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("high: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, j := range lows {
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("low-priority job %s starved: %v", j.ID(), err)
		}
		if j.State() != Done {
			t.Fatalf("low-priority job %s: %v (%v)", j.ID(), j.State(), j.Err())
		}
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
