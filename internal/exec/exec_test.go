package exec

import (
	"sync"
	"sync/atomic"
	"testing"

	"knlmlm/internal/psort"
	"knlmlm/internal/workload"
)

// chunkedDouble builds a pipeline that stages src through buffers, doubles
// every element, and writes results to dst.
func chunkedDouble(src, dst []int64, chunkLen int) Stages {
	n := len(src)
	numChunks := (n + chunkLen - 1) / chunkLen
	bounds := func(i int) (int, int) {
		lo := i * chunkLen
		hi := lo + chunkLen
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	return Stages{
		NumChunks: numChunks,
		ChunkLen: func(i int) int {
			lo, hi := bounds(i)
			return hi - lo
		},
		CopyIn: func(i int, buf []int64) error {
			lo, hi := bounds(i)
			copy(buf, src[lo:hi])
			return nil
		},
		Compute: func(i int, buf []int64) error {
			for j := range buf {
				buf[j] *= 2
			}
			return nil
		},
		CopyOut: func(i int, buf []int64) error {
			lo, hi := bounds(i)
			copy(dst[lo:hi], buf)
			return nil
		},
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	for _, buffers := range []int{1, 2, 3, 5} {
		src := workload.Generate(workload.Random, 10_000, 17)
		dst := make([]int64, len(src))
		if err := Run(chunkedDouble(src, dst, 777), buffers); err != nil {
			t.Fatalf("buffers=%d: %v", buffers, err)
		}
		for i := range src {
			if dst[i] != 2*src[i] {
				t.Fatalf("buffers=%d: dst[%d] = %d, want %d", buffers, i, dst[i], 2*src[i])
			}
		}
	}
}

func TestPipelineChunkLargerThanData(t *testing.T) {
	src := []int64{1, 2, 3}
	dst := make([]int64, 3)
	if err := Run(chunkedDouble(src, dst, 100), 3); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 2 || dst[2] != 6 {
		t.Errorf("dst = %v", dst)
	}
}

func TestPipelineZeroChunks(t *testing.T) {
	err := Run(Stages{NumChunks: 0, Compute: func(int, []int64) error { return nil }}, 3)
	if err != nil {
		t.Errorf("zero chunks: %v", err)
	}
}

func TestPipelineComputeOnly(t *testing.T) {
	// In-place variant: compute touches caller storage directly.
	data := workload.Generate(workload.Random, 1000, 3)
	want := append([]int64(nil), data...)
	psort.Serial(want)
	chunkLen := 100
	err := Run(Stages{
		NumChunks: 10,
		ChunkLen:  func(int) int { return chunkLen },
		Compute: func(i int, _ []int64) error {
			psort.Serial(data[i*chunkLen : (i+1)*chunkLen])
			return nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !workload.IsSorted(data[i*chunkLen : (i+1)*chunkLen]) {
			t.Fatalf("chunk %d not sorted", i)
		}
	}
}

func TestPipelineValidation(t *testing.T) {
	cases := []struct {
		name string
		s    Stages
		bufs int
	}{
		{"negative chunks", Stages{NumChunks: -1, Compute: func(int, []int64) error { return nil }}, 1},
		{"missing compute", Stages{NumChunks: 1, ChunkLen: func(int) int { return 1 }}, 1},
		{"missing chunklen", Stages{NumChunks: 1, Compute: func(int, []int64) error { return nil }}, 1},
		{"zero buffers", Stages{
			NumChunks: 1,
			ChunkLen:  func(int) int { return 1 },
			Compute:   func(int, []int64) error { return nil },
		}, 0},
	}
	for _, tc := range cases {
		if err := Run(tc.s, tc.bufs); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestPipelineNegativeChunkLen(t *testing.T) {
	s := Stages{
		NumChunks: 1,
		ChunkLen:  func(int) int { return -1 },
		Compute:   func(int, []int64) error { return nil },
	}
	if err := Run(s, 1); err == nil {
		t.Error("negative chunk length should error")
	}
}

// Stage ordering: for each chunk, copy-in happens-before compute
// happens-before copy-out, and each stage sees chunks in order.
func TestPipelineStageOrdering(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	events := make([]string, 0, 3*n)
	rec := func(kind string, i int) {
		mu.Lock()
		events = append(events, kind)
		_ = i
		mu.Unlock()
	}
	var lastIn, lastComp, lastOut int32 = -1, -1, -1
	s := Stages{
		NumChunks: n,
		ChunkLen:  func(int) int { return 4 },
		CopyIn: func(i int, buf []int64) error {
			if !atomic.CompareAndSwapInt32(&lastIn, int32(i-1), int32(i)) {
				t.Errorf("copy-in out of order at %d", i)
			}
			buf[0] = int64(i)
			rec("in", i)
			return nil
		},
		Compute: func(i int, buf []int64) error {
			if buf[0] != int64(i) {
				t.Errorf("compute %d saw buffer of chunk %d", i, buf[0])
			}
			if !atomic.CompareAndSwapInt32(&lastComp, int32(i-1), int32(i)) {
				t.Errorf("compute out of order at %d", i)
			}
			rec("comp", i)
			return nil
		},
		CopyOut: func(i int, buf []int64) error {
			if !atomic.CompareAndSwapInt32(&lastOut, int32(i-1), int32(i)) {
				t.Errorf("copy-out out of order at %d", i)
			}
			rec("out", i)
			return nil
		},
	}
	if err := Run(s, 3); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3*n {
		t.Errorf("recorded %d events, want %d", len(events), 3*n)
	}
}

// Buffer discipline: with b buffers, at most b chunks are in flight
// between copy-in start and copy-out end.
func TestPipelineBufferBound(t *testing.T) {
	for _, buffers := range []int{1, 2, 3} {
		var inflight, maxInflight int32
		s := Stages{
			NumChunks: 30,
			ChunkLen:  func(int) int { return 1 },
			CopyIn: func(i int, buf []int64) error {
				v := atomic.AddInt32(&inflight, 1)
				for {
					m := atomic.LoadInt32(&maxInflight)
					if v <= m || atomic.CompareAndSwapInt32(&maxInflight, m, v) {
						break
					}
				}
				return nil
			},
			Compute: func(int, []int64) error { return nil },
			CopyOut: func(int, []int64) error {
				atomic.AddInt32(&inflight, -1)
				return nil
			},
		}
		if err := Run(s, buffers); err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt32(&maxInflight); got > int32(buffers) {
			t.Errorf("buffers=%d: %d chunks in flight", buffers, got)
		}
	}
}

// Full MLM-style use: stage-sort chunks of a large array through buffers,
// then multiway-merge the sorted chunks — a miniature of MLM-sort's
// megachunk phase, verifying the pipeline composes with psort.
func TestPipelineSortAndMerge(t *testing.T) {
	const n, chunkLen = 20_000, 4096
	src := workload.Generate(workload.Random, n, 99)
	orig := append([]int64(nil), src...)
	numChunks := (n + chunkLen - 1) / chunkLen
	sorted := make([]int64, n)
	bounds := func(i int) (int, int) {
		lo := i * chunkLen
		hi := lo + chunkLen
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	s := Stages{
		NumChunks: numChunks,
		ChunkLen: func(i int) int {
			lo, hi := bounds(i)
			return hi - lo
		},
		CopyIn: func(i int, buf []int64) error {
			lo, hi := bounds(i)
			copy(buf, src[lo:hi])
			return nil
		},
		Compute: func(i int, buf []int64) error { psort.Serial(buf); return nil },
		CopyOut: func(i int, buf []int64) error {
			lo, hi := bounds(i)
			copy(sorted[lo:hi], buf)
			return nil
		},
	}
	if err := Run(s, 3); err != nil {
		t.Fatal(err)
	}
	runs := make([][]int64, numChunks)
	for i := range runs {
		lo, hi := bounds(i)
		runs[i] = sorted[lo:hi]
	}
	final := make([]int64, n)
	psort.ParallelMergeK(final, runs, 4)
	if !workload.IsSorted(final) {
		t.Error("final output not sorted")
	}
	if workload.Fingerprint(final) != workload.Fingerprint(orig) {
		t.Error("final output not a permutation of the input")
	}
}
