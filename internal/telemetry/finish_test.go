package telemetry

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
)

// TestFinishStages holds the one finishing step to what the three copies
// it replaced (mlmsort's, mergebench's, the scheduler's batch pass) each
// yielded: the policy's retry budget and deadline, failed attempts
// counted by the sink, the pool and the observer on the stage set, and
// the wrap applied exactly once per run — a compute retry re-stages
// through the wrapped copy-in, it does not wrap again.
func TestFinishStages(t *testing.T) {
	retry := exec.RetryPolicy{MaxAttempts: 3}
	var hooked atomic.Int64
	cases := []struct {
		name         string
		sink         bool
		observed     bool
		onRetry      func(exec.RetryEvent)
		computeFails int64 // failures of chunk 1's compute before it succeeds
		wantRetries  int64 // counted by the sink
		wantHooked   int64 // seen by the caller's own OnRetry
	}{
		{name: "bare"},
		{name: "observed", observed: true},
		{name: "sink, clean run", sink: true},
		{name: "sink counts a compute retry", sink: true, observed: true, computeFails: 1, wantRetries: 1},
		{name: "sink replaces the caller's hook", sink: true, onRetry: func(exec.RetryEvent) { hooked.Add(1) }, computeFails: 2, wantRetries: 2},
		{name: "no sink keeps the caller's hook", onRetry: func(exec.RetryEvent) { hooked.Add(1) }, computeFails: 1, wantHooked: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hooked.Store(0)
			pool := mem.NewSlicePool()
			var res *Resilience
			if c.sink {
				res = NewResilience(NewRegistry())
			}
			var rec *Recorder
			var obs exec.Observer
			if c.observed {
				rec = NewRecorder()
				obs = rec
			}
			var wraps, copyIns, fails atomic.Int64
			p := exec.Policy{
				Retry: retry, ChunkTimeout: time.Minute, OnRetry: c.onRetry,
				Wrap: func(s exec.Stages) exec.Stages {
					wraps.Add(1)
					inner := s.CopyIn
					s.CopyIn = func(i int, dst []int64) error {
						copyIns.Add(1)
						return inner(i, dst)
					}
					return s
				},
			}
			const chunks = 3
			out := make([]int64, chunks)
			s := FinishStages(exec.Stages{
				NumChunks: chunks,
				ChunkLen:  func(int) int { return 1 },
				CopyIn:    func(i int, dst []int64) error { dst[0] = int64(i); return nil },
				Compute: func(i int, buf []int64) error {
					if i == 1 && fails.Add(1) <= c.computeFails {
						return errors.New("transient")
					}
					buf[0] += 10
					return nil
				},
				CopyOut: func(i int, src []int64) error { out[i] = src[0]; return nil },
			}, p, res, obs, pool)

			if s.Retry != retry || s.ChunkTimeout != time.Minute || s.Pool != pool || s.Observer != obs {
				t.Fatalf("finished stages carry retry %+v timeout %v pool %p observer %v", s.Retry, s.ChunkTimeout, s.Pool, s.Observer)
			}
			if (s.OnRetry != nil) != (c.sink || c.onRetry != nil) {
				t.Fatalf("OnRetry set = %v with sink %v and caller hook %v", s.OnRetry != nil, c.sink, c.onRetry != nil)
			}
			for run := int64(1); run <= 2; run++ {
				if err := exec.Run(s, 2); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if got := wraps.Load(); got != run {
					t.Fatalf("after %d run(s) the wrap was applied %d times", run, got)
				}
			}
			// Only the first run meets the failures; each one re-staged its
			// chunk through the wrapped copy-in.
			if got, want := copyIns.Load(), 2*chunks+c.computeFails; got != want {
				t.Errorf("wrapped copy-in ran %d times, want %d", got, want)
			}
			for i, v := range out {
				if v != int64(i)+10 {
					t.Errorf("chunk %d came out %d, want %d", i, v, i+10)
				}
			}
			if c.sink && res.Retries() != c.wantRetries {
				t.Errorf("sink counted %d retries, want %d", res.Retries(), c.wantRetries)
			}
			if hooked.Load() != c.wantHooked {
				t.Errorf("caller's hook saw %d events, want %d", hooked.Load(), c.wantHooked)
			}
			if pool.Stats().Gets == 0 {
				t.Error("staging buffers did not come from the pool")
			}
			if c.observed && rec.Len() == 0 {
				t.Error("observer recorded no spans")
			}
		})
	}
}
