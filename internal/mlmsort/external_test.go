package mlmsort

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/spill"
	"knlmlm/internal/telemetry"
)

// externalTestSeed returns the deterministic seed the randomized external
// tests run with, overridable via MLMSORT_TEST_SEED to reproduce a logged
// failure.
func externalTestSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("MLMSORT_TEST_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad MLMSORT_TEST_SEED %q: %v", s, err)
		}
		seed = v
	}
	return seed
}

// adversarialInputs builds the adversarial input families kernel bugs
// hide in: value collapse, run-boundary patterns, extreme keys, and
// pre-existing order in both directions.
func adversarialInputs(n int, rng *rand.Rand) map[string][]int64 {
	in := map[string][]int64{
		"all-equal":  make([]int64, n),
		"sawtooth":   make([]int64, n),
		"organ-pipe": make([]int64, n),
		"min-int64":  make([]int64, n),
		"sorted":     make([]int64, n),
		"reversed":   make([]int64, n),
		"dup-heavy":  make([]int64, n),
		"random":     make([]int64, n),
	}
	for i := 0; i < n; i++ {
		in["all-equal"][i] = 42
		in["sawtooth"][i] = int64(i % 17)
		if i < n/2 {
			in["organ-pipe"][i] = int64(i)
		} else {
			in["organ-pipe"][i] = int64(n - i)
		}
		in["min-int64"][i] = math.MinInt64 + int64(i%3)
		in["sorted"][i] = int64(i)
		in["reversed"][i] = int64(n - i)
		in["dup-heavy"][i] = rng.Int63n(4)
		in["random"][i] = rng.Int63() - rng.Int63()
	}
	// A couple of exact extremes so overflow-prone comparisons trip.
	if n >= 4 {
		in["min-int64"][0] = math.MinInt64
		in["min-int64"][n-1] = math.MaxInt64
		in["random"][n/2] = math.MinInt64
		in["random"][n/3] = math.MaxInt64
	}
	return in
}

// fillProbe is a spill.IOFaults that never fails anything: it watches how
// many run-file fills are inside the store at once. MergeSpilled holds a
// read-ahead slot across each Fill, so the peak is the width the merge
// really ran with. The first reads of a merge linger briefly so that
// fills the merge allows to overlap do overlap.
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

func (p *fillProbe) reset() {
	p.mu.Lock()
	p.reads, p.peak = 0, 0
	p.mu.Unlock()
}

// TestRunRealExternalDifferential is the three-way differential required
// by the spill tier: the out-of-core path must agree byte-for-byte with
// both the in-memory MLM path and the standard library on adversarial
// inputs, at a megachunk size forcing well over three spill runs. It
// also holds ExternalStats.ReadAhead to the fill concurrency the merge
// was observed to run with: the one fill the scheduler's download merge
// asks for, a wider explicit width, and the zero default.
func TestRunRealExternalDifferential(t *testing.T) {
	seed := externalTestSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("seed=%d", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	probe := &fillProbe{}
	st, err := spill.NewStore(spill.Config{Dir: t.TempDir(), Faults: probe})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer st.Close()
	const n = 5000
	const mc = 1024 // ceil(5000/1024) = 5 spill runs
	for _, tc := range []struct {
		alg             Algorithm
		readAhead, want int
	}{
		{MLMSort, 1, 1},
		{MLMDDr, 3, 3},
		{MLMSort, 0, 2}, // zero options: the library default
	} {
		alg := tc.alg
		opts := ExternalOptions{
			RealOptions: RealOptions{Buffers: 2},
			Store:       st,
			MergeBlock:  257, // non-power-of-two, smaller than a run
			ReadAhead:   tc.readAhead,
		}
		for name, input := range adversarialInputs(n, rng) {
			want := append([]int64(nil), input...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

			inMem := append([]int64(nil), input...)
			if err := RunReal(alg, inMem, 3, mc); err != nil {
				t.Fatalf("%v/%s: RunReal: %v", alg, name, err)
			}
			ext := append([]int64(nil), input...)
			probe.reset()
			stats, err := RunRealExternal(context.Background(), alg, ext, 3, mc, opts)
			if err != nil {
				t.Fatalf("%v/%s: RunRealExternal: %v", alg, name, err)
			}
			if stats.Runs < 3 {
				t.Fatalf("%v/%s: only %d spill runs; differential needs >= 3", alg, name, stats.Runs)
			}
			if stats.MergedElems != n {
				t.Fatalf("%v/%s: merged %d elems, want %d", alg, name, stats.MergedElems, n)
			}
			if stats.ReadAhead != tc.want || stats.ReadAhead != probe.peak {
				t.Fatalf("%v/%s: ReadAhead %d reports %d fill workers, the merge ran %d, want %d",
					alg, name, tc.readAhead, stats.ReadAhead, probe.peak, tc.want)
			}
			for i := range want {
				if inMem[i] != want[i] {
					t.Fatalf("%v/%s: in-memory diverges from sort.Slice at %d: %d != %d",
						alg, name, i, inMem[i], want[i])
				}
				if ext[i] != want[i] {
					t.Fatalf("%v/%s: external diverges from sort.Slice at %d: %d != %d",
						alg, name, i, ext[i], want[i])
				}
			}
		}
	}
}

// TestRunRealExternalParallelMerge runs the out-of-core path with merge
// fan-out enabled at a size whose safe windows clear psort.MergeRound's
// fan-out threshold, so the parallel rounds are exercised end to end.
func TestRunRealExternalParallelMerge(t *testing.T) {
	seed := externalTestSeed(t)
	rng := rand.New(rand.NewSource(seed))
	const n = 200000
	input := make([]int64, n)
	for i := range input {
		input[i] = rng.Int63() - rng.Int63()
	}
	want := append([]int64(nil), input...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	ext := append([]int64(nil), input...)
	stats, err := RunRealExternal(context.Background(), MLMSort, ext, 3, 16384, ExternalOptions{
		RealOptions:  RealOptions{Buffers: 2},
		MergeThreads: 4,
	})
	if err != nil {
		t.Fatalf("RunRealExternal: %v", err)
	}
	if stats.Runs < 3 {
		t.Fatalf("only %d runs; the parallel merge needs a real fan-in", stats.Runs)
	}
	for i := range want {
		if ext[i] != want[i] {
			t.Fatalf("seed=%d: diverges from sort.Slice at %d: %d != %d", seed, i, ext[i], want[i])
		}
	}
}

func TestSpillSortedWritesSortedRuns(t *testing.T) {
	st, err := spill.NewStore(spill.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer st.Close()
	seed := externalTestSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("seed=%d", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int64, 3000)
	for i := range xs {
		xs[i] = rng.Int63()
	}
	runs, stats, err := SpillSorted(context.Background(), MLMSort, xs, 2, 700, ExternalOptions{Store: st})
	if err != nil {
		t.Fatalf("SpillSorted: %v", err)
	}
	if len(runs) != 5 || stats.Runs != 5 {
		t.Fatalf("runs = %v (stats %d), want 5", runs, stats.Runs)
	}
	if stats.SpilledBytes != int64(len(xs))*8 {
		t.Fatalf("SpilledBytes = %d, want %d", stats.SpilledBytes, len(xs)*8)
	}
	var total int64
	for _, id := range runs {
		r, err := st.OpenRun(id)
		if err != nil {
			t.Fatalf("OpenRun(%d): %v", id, err)
		}
		buf := make([]int64, 4096)
		var run []int64
		for {
			n, err := r.Fill(buf)
			run = append(run, buf[:n]...)
			if n == 0 {
				break
			}
			if err != nil {
				t.Fatalf("Fill(%d): %v", id, err)
			}
		}
		r.Close()
		if !sort.SliceIsSorted(run, func(i, j int) bool { return run[i] < run[j] }) {
			t.Fatalf("run %d is not sorted", id)
		}
		total += int64(len(run))
	}
	if total != int64(len(xs)) {
		t.Fatalf("runs hold %d elems, want %d", total, len(xs))
	}
}

// TestMergeSpilledStreamsAndRecycles checks the streaming contract: the
// sink sees a nondecreasing sequence in bounded batches, and the merge
// leaves no fill goroutines behind.
func TestMergeSpilledStreamsAndRecycles(t *testing.T) {
	st, err := spill.NewStore(spill.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer st.Close()
	xs := make([]int64, 4000)
	for i := range xs {
		xs[i] = int64((i * 7919) % 4001)
	}
	runs, _, err := SpillSorted(context.Background(), MLMSort, xs, 2, 900, ExternalOptions{Store: st})
	if err != nil {
		t.Fatalf("SpillSorted: %v", err)
	}
	before := runtime.NumGoroutine()
	var got []int64
	total, err := MergeSpilled(context.Background(), st, runs, ExternalOptions{MergeBlock: 128, ReadAhead: 3},
		func(batch []int64) error {
			got = append(got, batch...)
			return nil
		})
	if err != nil {
		t.Fatalf("MergeSpilled: %v", err)
	}
	if total != int64(len(xs)) || len(got) != len(xs) {
		t.Fatalf("merged %d/%d elems, want %d", total, len(got), len(xs))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("merged stream is not sorted")
	}
	waitGoroutines(t, before)
}

// TestMergeSpilledSinkErrorAborts checks that a failing sink stops the
// merge promptly, joins the fill workers, and surfaces the sink's error.
func TestMergeSpilledSinkErrorAborts(t *testing.T) {
	st, err := spill.NewStore(spill.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer st.Close()
	xs := make([]int64, 2000)
	for i := range xs {
		xs[i] = int64(i)
	}
	runs, _, err := SpillSorted(context.Background(), MLMSort, xs, 2, 500, ExternalOptions{Store: st})
	if err != nil {
		t.Fatalf("SpillSorted: %v", err)
	}
	before := runtime.NumGoroutine()
	boom := errors.New("client went away")
	calls := 0
	_, err = MergeSpilled(context.Background(), st, runs, ExternalOptions{MergeBlock: 64},
		func(batch []int64) error {
			calls++
			if calls >= 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("MergeSpilled = %v, want sink error", err)
	}
	waitGoroutines(t, before)
}

func TestRunRealExternalCancelCleansRuns(t *testing.T) {
	st, err := spill.NewStore(spill.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer st.Close()
	xs := make([]int64, 3000)
	for i := range xs {
		xs[i] = int64(len(xs) - i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sunk := 0
	_, err = RunRealExternal(ctx, MLMSort, xs, 2, 600, ExternalOptions{
		Store:      st,
		MergeBlock: 64,
		Sink: func(batch []int64) error {
			sunk += len(batch)
			cancel() // client disconnects mid-stream
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunRealExternal = %v, want context.Canceled", err)
	}
	if sunk == 0 {
		t.Fatal("cancellation fired before any batch was streamed")
	}
	if n := st.LiveRuns(); n != 0 {
		t.Fatalf("%d run files survive a cancelled sort", n)
	}
	if fp := st.FootprintBytes(); fp != 0 {
		t.Fatalf("%d disk bytes still charged after cancel", fp)
	}
}

// onceFlaky fails the first write of one run and the first read of
// another, which a retry policy must absorb.
type onceFlaky struct {
	failedW, failedR bool
}

func (f *onceFlaky) FailWrite(run int) bool {
	if run == 1 && !f.failedW {
		f.failedW = true
		return true
	}
	return false
}

func (f *onceFlaky) FailRead(run int) bool {
	if run == 2 && !f.failedR {
		f.failedR = true
		return true
	}
	return false
}

func TestRunRealExternalRetriesIOFaults(t *testing.T) {
	st, err := spill.NewStore(spill.Config{Dir: t.TempDir(), Faults: &onceFlaky{}})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer st.Close()
	res := telemetry.NewResilience(telemetry.NewRegistry())
	xs := make([]int64, 2500)
	for i := range xs {
		xs[i] = int64((i * 31) % 977)
	}
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	_, err = RunRealExternal(context.Background(), MLMSort, xs, 2, 500, ExternalOptions{
		RealOptions: RealOptions{
			Policy:     exec.Policy{Retry: exec.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}},
			Resilience: res,
		},
		Store:      st,
		MergeBlock: 100,
	})
	if err != nil {
		t.Fatalf("RunRealExternal under IO faults: %v", err)
	}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("elem %d = %d, want %d after fault retries", i, xs[i], want[i])
		}
	}
	fst := st.Stats()
	if fst.WriteFaults != 1 || fst.ReadFaults != 1 {
		t.Fatalf("fault counters = %d/%d, want 1/1", fst.WriteFaults, fst.ReadFaults)
	}
	if st.LiveRuns() != 0 {
		t.Fatalf("%d run files survive completion", st.LiveRuns())
	}
}

func TestRunRealExternalExhaustedRetriesAbort(t *testing.T) {
	st, err := spill.NewStore(spill.Config{Dir: t.TempDir(), Faults: alwaysFailReads{}})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer st.Close()
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i ^ 0x55)
	}
	_, err = RunRealExternal(context.Background(), MLMSort, xs, 2, 300, ExternalOptions{
		RealOptions: RealOptions{Policy: exec.Policy{Retry: exec.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}}},
		Store:       st,
	})
	var ce *exec.ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("RunRealExternal = %v, want ChunkError after exhausted read retries", err)
	}
	if st.LiveRuns() != 0 {
		t.Fatalf("%d run files survive a fault abort", st.LiveRuns())
	}
}

type alwaysFailReads struct{}

func (alwaysFailReads) FailWrite(int) bool { return false }
func (alwaysFailReads) FailRead(int) bool  { return true }

// waitGoroutines waits for the goroutine count to sink back to (or below)
// the recorded baseline, tolerating runtime background noise.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d > %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
