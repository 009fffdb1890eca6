package exec

import (
	"context"
	"errors"
	"sync/atomic"
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
// cancelled one, a failed one and one whose attempt was abandoned to the
// chunk deadline, and the pool's footprint never leaves its baseline.
func TestPooledRunNoStagingPath(t *testing.T) {
	pool := mem.NewSlicePoolBudget(1 << 20)
	pool.Warm(256) // a baseline that is not zero
	base, baseStats := pool.FootprintBytes(), pool.Stats()
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	var slow atomic.Bool
	release := make(chan struct{})
	defer close(release)
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
	abandoned := stages(func(i int) error {
		if i == 1 && slow.CompareAndSwap(false, true) {
			<-release // overruns the deadline, which ends a compute stage's chunk
		}
		return nil
	})
	abandoned.ChunkTimeout = 20 * time.Millisecond
	abandoned.Retry = RetryPolicy{MaxAttempts: 1}
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
		{"abandoned", abandoned, ErrDeadline},
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

func TestPooledRunAbandonedBufferNeverPooled(t *testing.T) {
	pool := mem.NewSlicePool()
	src := workload.Generate(workload.Random, 4_000, 9)
	dst := make([]int64, len(src))
	s := chunkedDouble(src, dst, 1000)
	s.Pool = pool
	slow := make(chan struct{})
	inner := s.CopyIn
	var tripped atomic.Bool // the abandoned attempt races the retry here
	s.CopyIn = func(i int, buf []int64) error {
		if i == 0 && tripped.CompareAndSwap(false, true) {
			<-slow // overruns the deadline; released after the run
		}
		return inner(i, buf)
	}
	s.ChunkTimeout = 20 * time.Millisecond
	s.Retry = RetryPolicy{MaxAttempts: 3}
	if err := Run(s, 3); err != nil {
		t.Fatal(err)
	}
	close(slow)
	for i := range src {
		if dst[i] != 2*src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], 2*src[i])
		}
	}
	// Three buffers were staged plus one replacement for the abandoned
	// attempt; exactly the three safe ones may come back.
	st := pool.Stats()
	if st.Puts != 3 {
		t.Errorf("run returned %d buffers, want 3 (abandoned one leaked on purpose)", st.Puts)
	}
	// The leaked buffer must be written off the footprint, or a budgeted
	// pool would ratchet toward refusing every Get as abandonments
	// accumulate: custody after the run is exactly the three freelisted
	// buffers (class 2^10 for the 1000-element chunks).
	if st.Forgets != 1 {
		t.Errorf("Forgets = %d, want 1", st.Forgets)
	}
	if got, want := pool.FootprintBytes(), int64(3*8*1024); got != want {
		t.Errorf("footprint after abandonment = %d, want %d", got, want)
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
