package sched

import (
	"context"
	"errors"
	"sync"
	"testing"

	"knlmlm/internal/mem"
	"knlmlm/internal/workload"
)

// TestKeyPoolRecyclesOnEviction: with a KeyPool configured, a terminal
// job's key buffer re-enters the pool when retention evicts the job —
// and not before, so a completed-but-retained job still streams its
// result.
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

	// Retained: the buffer is still the job's result.
	var got []int64
	if _, err := j1.StreamResult(context.Background(), func(b []int64) error {
		got = append(got, b...)
		return nil
	}); err != nil {
		t.Fatalf("StreamResult while retained: %v", err)
	}
	if !workload.IsSorted(got) || len(got) != 4096 {
		t.Fatalf("bad retained result: %d keys", len(got))
	}
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
	reused := pool.Get(4096)
	if reused == nil {
		t.Fatal("pool refused a Get it should serve from the recycled buffer")
	}
	if st := pool.Stats(); st.Hits == 0 {
		t.Fatalf("no pool hit after recycle: %+v", st)
	}
}

// TestKeyPoolEvictionWaitsForStream: eviction firing in the middle of a
// StreamResult delivery must defer the recycle until the delivery
// returns — the socket writer still reads the buffer.
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
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, serr := j1.StreamResult(context.Background(), func(b []int64) error {
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
	if got := pool.Get(4096); got != nil && &got[0] == &j1.spec.Data[0] {
		t.Fatal("in-flight buffer recycled under an active stream")
	}
	close(release)
	wg.Wait()
	// Now the deferred recycle has landed: the job's buffer is detached.
	j1.mu.Lock()
	gone := j1.spec.Data == nil && j1.dataGone
	j1.mu.Unlock()
	if !gone {
		t.Fatal("buffer not reclaimed after the stream drained")
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
