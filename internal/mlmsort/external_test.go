package mlmsort

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
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

// sortExternal sorts xs out of core as cmd/mlmsort -spill and the
// service do: SpillSorted into opts.Store, then MergeSpilled back onto
// xs. The runs stay in the store; it returns their ids and the merged
// cell count.
func sortExternal(ctx context.Context, alg Algorithm, xs []int64, threads, megachunk int, opts ExternalOptions) ([]int, int64, error) {
	runs, _, err := SpillSorted(ctx, alg, xs, threads, megachunk, opts)
	if err != nil {
		return runs, 0, err
	}
	pos := 0
	merged, err := MergeSpilled(ctx, opts.Store, runs, opts, func(batch []int64) error {
		pos += copy(xs[pos:], batch)
		return nil
	})
	return runs, merged, err
}

// newTestStore opens a run store under a test temp dir, closed at the
// end of the test.
func newTestStore(t *testing.T, faults spill.IOFaults) *spill.Store {
	t.Helper()
	st, err := spill.NewStore(spill.Config{Dir: t.TempDir(), Faults: faults})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestRunRealExternalDifferential is the three-way differential required
// by the spill tier: the out-of-core sort (SpillSorted, then MergeSpilled
// onto xs) must agree byte-for-byte with both the in-memory MLM path and
// the standard library on adversarial inputs, at a megachunk size forcing
// well over three spill runs. It also pins the merge's read-ahead at the
// one fill in flight it was observed to run with.
func TestRunRealExternalDifferential(t *testing.T) {
	seed := externalTestSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("seed=%d", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	probe := &fillProbe{}
	st := newTestStore(t, probe)
	const n = 5000
	const mc = 1024 // ceil(5000/1024) = 5 spill runs
	for _, alg := range []Algorithm{MLMSort, MLMDDr} {
		opts := ExternalOptions{
			RealOptions: RealOptions{Buffers: 2},
			Store:       st,
			blockElems:  257, // non-power-of-two, smaller than a run
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
			runs, merged, err := sortExternal(context.Background(), alg, ext, 3, mc, opts)
			if err != nil {
				t.Fatalf("%v/%s: out-of-core sort: %v", alg, name, err)
			}
			if len(runs) < 3 {
				t.Fatalf("%v/%s: only %d spill runs; differential needs >= 3", alg, name, len(runs))
			}
			if merged != n {
				t.Fatalf("%v/%s: merged %d elems, want %d", alg, name, merged, n)
			}
			if probe.peak != 1 {
				t.Fatalf("%v/%s: the merge ran %d fills at once, want 1", alg, name, probe.peak)
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

// TestRunRealExternalParallelMerge runs the out-of-core sort with merge
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
	runs, _, err := sortExternal(context.Background(), MLMSort, ext, 3, 16384, ExternalOptions{
		RealOptions:  RealOptions{Buffers: 2},
		Store:        newTestStore(t, nil),
		MergeThreads: 4,
	})
	if err != nil {
		t.Fatalf("out-of-core sort: %v", err)
	}
	if len(runs) < 3 {
		t.Fatalf("only %d runs; the parallel merge needs a real fan-in", len(runs))
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
	runs, _, err := SpillSorted(context.Background(), MLMSort, xs, 2, 700, ExternalOptions{Store: st})
	if err != nil {
		t.Fatalf("SpillSorted: %v", err)
	}
	if len(runs) != 5 {
		t.Fatalf("runs = %v, want 5", runs)
	}
	if w := st.Stats().BytesWritten; w != int64(len(xs))*8 {
		t.Fatalf("BytesWritten = %d, want %d", w, len(xs)*8)
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
	total, err := MergeSpilled(context.Background(), st, runs, ExternalOptions{blockElems: 128},
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
	_, err = MergeSpilled(context.Background(), st, runs, ExternalOptions{blockElems: 64},
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

// cancelOnRead cancels a sort from inside its final merge, at run-file
// read number at: run files are read only once phase 1 has spilled
// them all.
type cancelOnRead struct {
	cancel context.CancelFunc
	at     int64
	reads  atomic.Int64
}

func (c *cancelOnRead) FailWrite(int) bool { return false }

func (c *cancelOnRead) FailRead(int) bool {
	if c.reads.Add(1) == c.at {
		c.cancel()
	}
	return false
}

func TestRunRealExternalCancelCleansRuns(t *testing.T) {
	const n, megachunk, block = 3000, 600, 64
	runs := n / megachunk
	// Before the merge uses up a block, each run's fill worker has read
	// at most three: the one the merge holds, the one staged in its
	// channel and the one waiting to be staged. The merge only asks for a
	// run's next block after a round has cut its head away and been
	// written back, so read 3*runs+1 cancels mid-stream, with blocks
	// being recycled and most of each 10-block run still unread.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := &cancelOnRead{cancel: cancel, at: int64(3*runs + 1)}
	st := newTestStore(t, probe)
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(len(xs) - i)
	}
	_, _, err := sortExternal(ctx, MLMSort, xs, 2, megachunk, ExternalOptions{
		Store:      st,
		blockElems: block,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("out-of-core sort = %v, want context.Canceled", err)
	}
	// The input is reversed, so key 1 starts in the last megachunk; only
	// the merge's write-back puts it at xs[0].
	if xs[0] != 1 {
		t.Fatalf("xs[0] = %d after cancel: cancellation fired before any batch was written back", xs[0])
	}
	// The store's owner removes the runs (cmd/mlmsort's spillSort and
	// the scheduler's spill-abort tests check that). The merge's part is
	// to have closed every run it opened, so closing the store removes
	// its directory at once instead of deferring to a straggling reader.
	st.Close()
	if _, err := os.Stat(st.Dir()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("store directory after cancel and Close: %v; a run reader is still open", err)
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
	st := newTestStore(t, &onceFlaky{})
	res := telemetry.NewResilience(telemetry.NewRegistry())
	xs := make([]int64, 2500)
	for i := range xs {
		xs[i] = int64((i * 31) % 977)
	}
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	_, _, err := sortExternal(context.Background(), MLMSort, xs, 2, 500, ExternalOptions{
		RealOptions: RealOptions{
			Policy:     exec.Policy{Retry: exec.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}},
			Resilience: res,
		},
		Store:      st,
		blockElems: 100,
	})
	if err != nil {
		t.Fatalf("out-of-core sort under IO faults: %v", err)
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
	if res.Retries() != 2 {
		t.Fatalf("%d retries reported, want the write's and the read's", res.Retries())
	}
	// SpillSorted records phase 1's outcome, as RunRealResilient does.
	if c, a := res.Completions(), res.Aborts()+res.Cancellations(); c != 1 || a != 0 {
		t.Fatalf("outcomes: %d completions, %d others; want one completion", c, a)
	}
}

func TestRunRealExternalExhaustedRetriesAbort(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i ^ 0x55)
	}
	_, _, err := sortExternal(context.Background(), MLMSort, xs, 2, 300, ExternalOptions{
		RealOptions: RealOptions{Policy: exec.Policy{Retry: exec.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}}},
		Store:       newTestStore(t, alwaysFailReads{}),
	})
	var ce *exec.ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("out-of-core sort = %v, want ChunkError after exhausted read retries", err)
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
