package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/fault"
	"knlmlm/internal/mem"
	"knlmlm/internal/workload"
)

// TestKeyPoolRecyclesAtDownload: an in-memory result leaves its job at
// its download, not at retention eviction. With retention above the job
// count, each job streamed once has its key buffer back in the KeyPool
// while the job is still retained, and a second download answers
// ErrResultConsumed.
func TestKeyPoolRecyclesAtDownload(t *testing.T) {
	pool := mem.NewSlicePool()
	cfg := testConfig()
	cfg.KeyPool = pool
	cfg.RetainJobs = 64
	s := newTestScheduler(t, cfg)

	const jobs, n = 4, 4096
	for i := range jobs {
		data := pool.Get(n)
		copy(data, workload.Generate(workload.Random, n, int64(i+1)))
		j, err := s.Submit(JobSpec{Data: data})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
		if free := pool.FreeSlices(); free != 0 {
			t.Fatalf("job %d: %d free slices before its download, want 0", i, free)
		}
		got := drainStream(t, j)
		if len(got) != n || !workload.IsSorted(got) {
			t.Fatalf("job %d: streamed %d keys (sorted %v), want %d sorted", i, len(got), workload.IsSorted(got), n)
		}
		if free := pool.FreeSlices(); free != 1 {
			t.Fatalf("job %d: %d free slices after its download, want its buffer (1)", i, free)
		}
		if _, err := j.StreamResult(context.Background(), func([]int64) error { return nil }); !errors.Is(err, ErrResultConsumed) {
			t.Fatalf("job %d: second StreamResult: %v, want ErrResultConsumed", i, err)
		}
		if _, ok := s.Lookup(j.ID()); !ok {
			t.Fatalf("job %d evicted; the test needs it retained", i)
		}
	}
}

// TestKeyPoolRecyclesOnEviction: a result nobody downloaded keeps its
// key buffer while the job is retained, and the buffer re-enters the
// KeyPool when retention evicts the job.
func TestKeyPoolRecyclesOnEviction(t *testing.T) {
	pool := mem.NewSlicePool()
	cfg := testConfig()
	cfg.KeyPool = pool
	cfg.RetainJobs = 1
	s := newTestScheduler(t, cfg)

	data := pool.Get(4096)
	copy(data, workload.Generate(workload.Random, 4096, 1))
	j1, err := s.Submit(JobSpec{Data: data})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j1)

	// Retained and not downloaded: the buffer is still the job's result.
	if pool.FreeSlices() != 0 {
		t.Fatalf("buffer recycled before eviction: %d free slices", pool.FreeSlices())
	}

	// A second and third terminal job push j1 (then j2) out of the
	// RetainJobs=1 window, recycling their buffers.
	j2, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 2048, 2)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j2)
	j3, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 2048, 3)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j3)

	if free := pool.FreeSlices(); free < 1 {
		t.Fatalf("evicted buffers not recycled: %d free slices", free)
	}
	if _, ok := s.Lookup(j1.ID()); ok {
		t.Fatal("evicted job still addressable")
	}
	// The evicted job's stream refuses rather than serving recycled memory.
	if _, err := j1.StreamResult(context.Background(), func([]int64) error { return nil }); !errors.Is(err, ErrResultConsumed) {
		t.Fatalf("StreamResult after eviction: %v, want ErrResultConsumed", err)
	}
	// The recycled class-12 (4096-element) buffer serves the next Get.
	if reused := pool.Get(4096); reused == nil || &reused[0] != &data[0] {
		t.Fatal("the next Get of the buffer's class did not reuse the evicted job's buffer")
	}
}

// TestKeyPoolEvictionWaitsForStream: eviction firing in the middle of a
// StreamResult delivery must not recycle the buffer being delivered —
// the socket writer still reads it; it re-enters the pool once the
// delivery returns.
func TestKeyPoolEvictionWaitsForStream(t *testing.T) {
	pool := mem.NewSlicePool()
	cfg := testConfig()
	cfg.KeyPool = pool
	cfg.RetainJobs = 1
	s := newTestScheduler(t, cfg)

	j1, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 4096, 1)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j1)

	inSink := make(chan struct{})
	release := make(chan struct{})
	var held *int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, serr := j1.StreamResult(context.Background(), func(b []int64) error {
			held = &b[0]
			close(inSink)
			<-release
			if !workload.IsSorted(b) {
				t.Error("batch unsorted under concurrent eviction")
			}
			return nil
		})
		if serr != nil {
			t.Errorf("StreamResult: %v", serr)
		}
	}()
	<-inSink

	// Evict j1 while its delivery is parked inside the sink.
	for seed := int64(2); seed < 4; seed++ {
		j, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 2048, seed)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
	}
	if _, ok := s.Lookup(j1.ID()); ok {
		t.Fatal("j1 still retained; test needs it evicted mid-stream")
	}
	// The 4096-class buffer must NOT be in the pool while the sink holds it.
	if got := pool.Get(4096); got != nil && &got[0] == held {
		t.Fatal("in-flight buffer recycled under an active stream")
	}
	close(release)
	wg.Wait()
	// Now the delivery has returned the buffer: it is detached from the
	// job and serves the next Get of its class.
	j1.mu.Lock()
	gone := j1.spec.Data == nil && j1.taken
	j1.mu.Unlock()
	if !gone {
		t.Fatal("buffer not reclaimed after the stream drained")
	}
	if got := pool.Get(4096); got == nil || &got[0] != held {
		t.Fatal("delivered buffer not recycled after the stream drained")
	}
}

// TestKeyPoolTakesSpillInputAtDone: a spill job's result is its run
// files, so its key buffer is back in the KeyPool once the job is Done —
// before its download, not at retention eviction — and the download
// still streams the whole sorted result.
func TestKeyPoolTakesSpillInputAtDone(t *testing.T) {
	pool := mem.NewSlicePool()
	cfg := spillTestConfig(t)
	cfg.KeyPool = pool
	s := newTestScheduler(t, cfg)

	const n = 50000
	data := pool.Get(n)
	copy(data, workload.Generate(workload.Random, n, 1))
	j, err := s.Submit(JobSpec{Data: data})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !j.Spilled() {
		t.Fatalf("%d-key job not spill class", n)
	}
	waitDone(t, j)
	if j.State() != Done {
		t.Fatalf("state %v (%v), want Done", j.State(), j.Err())
	}
	if free := pool.FreeSlices(); free != 1 {
		t.Fatalf("%d free slices in the pool once the spill job is Done, want its input (1)", free)
	}
	got := drainStream(t, j)
	if len(got) != n || !workload.IsSorted(got) {
		t.Fatalf("streamed %d keys (sorted %v), want %d sorted", len(got), workload.IsSorted(got), n)
	}
	if reused := pool.Get(n); reused == nil || &reused[0] != &data[0] {
		t.Fatal("the next Get of the input's class did not reuse the spill job's input")
	}
}

// TestCanceledJobKeepsBuffersUntilSortReturns: cancelling a running job
// never abandons its sort. Under the chaos plan's policy, the one
// mlmserve -chaos runs, a job cancelled while its compute is held stays
// non-terminal, and its key buffer stays out of the KeyPool while a
// neighbour finishes and retention (RetainJobs 1) evicts what is
// terminal, until the compute returns; only then does the job end
// Canceled. Had it turned terminal at the cancel, the neighbour would
// evict it and the next upload would decode into a buffer the sort was
// still writing.
func TestCanceledJobKeepsBuffersUntilSortReturns(t *testing.T) {
	pool := mem.NewSlicePool()
	cfg := testConfig()
	cfg.KeyPool = pool
	cfg.RetainJobs = 1
	cfg.Policy = fault.NewPlan(1, testBudget).Rig(nil).Policy
	chaos := cfg.Wrap
	g := newGate()
	defer g.open()
	entered := make(chan struct{})
	var enter sync.Once
	var first atomic.Bool
	cfg.Wrap = func(st exec.Stages) exec.Stages {
		st = chaos(st)
		if !first.CompareAndSwap(false, true) {
			return st
		}
		inner := st.Compute
		st.Compute = func(i int, buf []int64) error {
			enter.Do(func() { close(entered) })
			<-g.ch
			return inner(i, buf)
		}
		return st
	}
	s := newTestScheduler(t, cfg)

	data := pool.Get(65536)
	copy(data, workload.Generate(workload.Random, len(data), 1))
	j, err := s.Submit(JobSpec{Data: data})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the job's compute never started")
	}
	j.Cancel()
	// 40000 keys are not a size class: the neighbour's own buffer never
	// enters the pool.
	j2, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 2)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j2)
	if st := j.State(); st.Terminal() {
		t.Fatalf("job turned %v while its sort was still running", st)
	}
	if free := pool.FreeSlices(); free != 0 {
		t.Fatalf("%d free slices while the cancelled job's sort still runs, want 0", free)
	}

	g.open()
	waitDone(t, j)
	if st := j.State(); st != Canceled {
		t.Fatalf("state %v, want %v once the held compute returned", st, Canceled)
	}
	// Its sort over, the buffer goes back when retention evicts the job.
	j3, err := s.Submit(JobSpec{Data: workload.Generate(workload.Random, 40000, 3)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j3)
	if reused := pool.Get(65536); reused == nil || &reused[0] != &data[0] {
		t.Fatal("the evicted cancelled job's key buffer did not return to the pool")
	}
}
