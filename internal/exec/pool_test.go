package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"knlmlm/internal/mem"
	"knlmlm/internal/workload"
)

func TestPooledRunRecyclesBuffers(t *testing.T) {
	pool := mem.NewSlicePool()
	run := func() {
		src := workload.Generate(workload.Random, 10_000, 5)
		dst := make([]int64, len(src))
		s := chunkedDouble(src, dst, 1000)
		s.Pool = pool
		if err := Run(s, 3); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if dst[i] != 2*src[i] {
				t.Fatalf("dst[%d] = %d, want %d", i, dst[i], 2*src[i])
			}
		}
	}
	run()
	st := pool.Stats()
	if st.Puts < 3 {
		t.Fatalf("first run returned %d buffers, want >= 3", st.Puts)
	}
	before := st
	run()
	st = pool.Stats()
	if gets, hits := st.Gets-before.Gets, st.Hits-before.Hits; gets != hits {
		t.Errorf("second run missed the pool: %d gets, %d hits", gets, hits)
	}
}

// TestPooledRunNoStagingPath: a compute-only run has no staging buffer, so
// it draws nothing from the pool, which under a budget is lease a staged
// neighbour needs. Its stage gets an empty buffer on a clean run, a
// cancelled one and a failed one, and the pool's footprint never leaves its
// baseline.
func TestPooledRunNoStagingPath(t *testing.T) {
	pool := mem.NewSlicePoolBudget(1 << 20)
	pool.Warm(256) // a baseline that is not zero
	base, baseStats := pool.FootprintBytes(), pool.Stats()
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	stages := func(compute func(i int) error) Stages {
		return Stages{
			NumChunks: 4,
			ChunkLen:  func(int) int { return 256 },
			Compute: func(i int, buf []int64) error {
				if len(buf) != 0 {
					t.Errorf("chunk %d: compute-only stage got a %d-element buffer, want none", i, len(buf))
				}
				return compute(i)
			},
			Pool: pool,
		}
	}
	for _, tc := range []struct {
		name string
		s    Stages
		want error
	}{
		{"clean", stages(func(int) error { return nil }), nil},
		{"cancelled", stages(func(i int) error {
			if i == 1 {
				cancel()
			}
			return nil
		}), context.Canceled},
		{"failed", stages(func(i int) error {
			if i == 2 {
				return boom
			}
			return nil
		}), boom},
	} {
		runCtx := context.Background()
		if tc.want == context.Canceled {
			runCtx = ctx
		}
		if err := RunContext(runCtx, tc.s, 1); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if st := pool.Stats(); st != baseStats {
			t.Errorf("%s: compute-only run touched the pool: %+v, was %+v", tc.name, st, baseStats)
		}
		if fp := pool.FootprintBytes(); fp != base {
			t.Errorf("%s: pool footprint %d, want the baseline %d", tc.name, fp, base)
		}
	}
}

// TestComputeCopyOutOverCallerStorage: a pipeline with Compute and CopyOut
// but no CopyIn works over the caller's storage, as a spilling run does
// when it sorts each megachunk where it lives and streams it to its run
// file from there. It draws nothing from the pool, both stages get an
// empty buffer, and buffers bounds how far compute runs ahead: with two,
// copy-out of chunk 0 and compute of chunk 1 are both under way at once
// (each waits, inside its stage, for the other to have begun); with one,
// compute of chunk i+1 starts only after copy-out of chunk i returns.
func TestComputeCopyOutOverCallerStorage(t *testing.T) {
	const chunks, chunkLen = 4, 256
	for _, buffers := range []int{1, 2} {
		pool := mem.NewSlicePoolBudget(1 << 20)
		pool.Warm(chunkLen)
		baseStats := pool.Stats()
		data := workload.Generate(workload.Random, chunks*chunkLen, 3)
		out := make([]int64, len(data))
		outStarted, computeStarted := make(chan struct{}), make(chan struct{})
		var order []string // appended by both stage goroutines under mu
		var mu sync.Mutex
		log := func(ev string) {
			mu.Lock()
			order = append(order, ev)
			mu.Unlock()
		}
		// overlapped waits for ch inside a stage; giving up after a bound
		// only turns a missing overlap into an error instead of a hang.
		overlapped := func(ch chan struct{}) error {
			select {
			case <-ch:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("the other stage never started")
			}
		}
		s := Stages{
			NumChunks: chunks,
			ChunkLen:  func(int) int { return chunkLen },
			Compute: func(i int, buf []int64) error {
				if len(buf) != 0 {
					t.Errorf("chunk %d: compute got a %d-element buffer, want none", i, len(buf))
				}
				log(fmt.Sprintf("compute %d", i))
				chunk := data[i*chunkLen : (i+1)*chunkLen]
				slices.Sort(chunk)
				if buffers == 2 && i == 1 {
					close(computeStarted)
					return overlapped(outStarted)
				}
				return nil
			},
			CopyOut: func(i int, src []int64) error {
				if len(src) != 0 {
					t.Errorf("chunk %d: copy-out got a %d-element buffer, want none", i, len(src))
				}
				copy(out[i*chunkLen:], data[i*chunkLen:(i+1)*chunkLen])
				if buffers == 2 && i == 0 {
					close(outStarted)
					if err := overlapped(computeStarted); err != nil {
						return err
					}
				}
				log(fmt.Sprintf("copy-out %d done", i))
				return nil
			},
			Pool: pool,
		}
		if err := Run(s, buffers); err != nil {
			t.Fatalf("buffers=%d: %v", buffers, err)
		}
		if st := pool.Stats(); st != baseStats {
			t.Errorf("buffers=%d: the run touched the pool: %+v, was %+v", buffers, st, baseStats)
		}
		for i := 0; i < chunks; i++ {
			if !workload.IsSorted(out[i*chunkLen : (i+1)*chunkLen]) {
				t.Fatalf("buffers=%d: chunk %d copied out unsorted", buffers, i)
			}
		}
		if buffers == 1 {
			var want []string
			for i := 0; i < chunks; i++ {
				want = append(want, fmt.Sprintf("compute %d", i), fmt.Sprintf("copy-out %d done", i))
			}
			if !slices.Equal(order, want) {
				t.Errorf("buffers=1: stages ran %q, want strictly %q", order, want)
			}
		}
	}
}

func TestPooledRunReclaimsOnFailure(t *testing.T) {
	pool := mem.NewSlicePool()
	src := workload.Generate(workload.Random, 4_000, 11)
	dst := make([]int64, len(src))
	s := chunkedDouble(src, dst, 1000)
	s.Pool = pool
	boom := errors.New("boom")
	s.Compute = func(i int, buf []int64) error {
		if i == 2 {
			return boom
		}
		return nil
	}
	if err := Run(s, 3); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The aborted run must still recycle the buffers parked in its
	// channels (the failed chunk's buffer may be dropped).
	if st := pool.Stats(); st.Puts < 2 {
		t.Errorf("aborted run returned %d buffers, want >= 2", st.Puts)
	}
}
