package exec_test

// External test package: cross-validates the exec layer's span hooks
// against its byte counters using the telemetry recorder (exec cannot
// import telemetry itself — telemetry sits above it).

import (
	"sync"
	"testing"

	"knlmlm/internal/exec"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

// stagedIncrement builds a staged pipeline over n elements that bumps
// every element by one, `passes` times.
func stagedIncrement(src, dst []int64, chunkLen, passes int) exec.Stages {
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
	return exec.Stages{
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
			for p := 0; p < passes; p++ {
				for j := range buf {
					buf[j]++
				}
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

// TestTelemetryMatchesCountersByteForByte runs several instrumented,
// observed pipelines concurrently against one shared recorder (a -race
// exercise) and checks the telemetry byte totals equal the Counters
// exactly, per stage.
func TestTelemetryMatchesCountersByteForByte(t *testing.T) {
	const (
		pipelines = 4
		n         = 10_000
		chunkLen  = 777 // deliberately ragged final chunk
		passes    = 3
	)
	rec := telemetry.NewRecorder()
	counters := make([]*exec.Counters, pipelines)
	var wg sync.WaitGroup
	for p := 0; p < pipelines; p++ {
		src := workload.Generate(workload.Random, n, int64(p+1))
		dst := make([]int64, n)
		s := stagedIncrement(src, dst, chunkLen, passes)
		inst, c := exec.Instrument(s, int64(2*passes*8))
		inst.Observer = rec
		counters[p] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := exec.Run(inst, 3); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var wantIn, wantComp, wantOut int64
	for _, c := range counters {
		wantIn += c.CopyInBytes()
		wantComp += c.ComputeBytes()
		wantOut += c.CopyOutBytes()
	}
	got := rec.BytesByStage()
	if got[exec.StageCopyIn] != wantIn {
		t.Errorf("copy-in bytes: telemetry %d, counters %d", got[exec.StageCopyIn], wantIn)
	}
	if got[exec.StageCompute] != wantComp {
		t.Errorf("compute bytes: telemetry %d, counters %d", got[exec.StageCompute], wantComp)
	}
	if got[exec.StageCopyOut] != wantOut {
		t.Errorf("copy-out bytes: telemetry %d, counters %d", got[exec.StageCopyOut], wantOut)
	}
	// Sanity: each chunk contributes one span per work stage.
	numChunks := (n + chunkLen - 1) / chunkLen
	spans := rec.Spans()
	perStage := map[exec.Stage]int{}
	for _, s := range spans {
		perStage[s.Stage]++
	}
	for _, st := range []exec.Stage{exec.StageCopyIn, exec.StageCompute, exec.StageCopyOut} {
		if perStage[st] != pipelines*numChunks {
			t.Errorf("%v spans = %d, want %d", st, perStage[st], pipelines*numChunks)
		}
	}
}

// TestObservedPipelineCoversEveryChunkAndStage checks the span set of a
// single observed run: every chunk appears in every work stage, and wait
// spans are present for the stages that can starve.
func TestObservedPipelineCoversEveryChunkAndStage(t *testing.T) {
	const n, chunkLen = 5_000, 500
	src := workload.Generate(workload.Random, n, 1)
	dst := make([]int64, n)
	rec := telemetry.NewRecorder()
	s := stagedIncrement(src, dst, chunkLen, 1)
	s.Observer = rec
	if err := exec.Run(s, 3); err != nil {
		t.Fatal(err)
	}
	seen := map[exec.Stage]map[int]bool{}
	for _, sp := range rec.Spans() {
		if seen[sp.Stage] == nil {
			seen[sp.Stage] = map[int]bool{}
		}
		seen[sp.Stage][sp.Chunk] = true
	}
	for _, st := range []exec.Stage{
		exec.StageCopyInWait, exec.StageCopyIn,
		exec.StageComputeWait, exec.StageCompute,
		exec.StageCopyOutWait, exec.StageCopyOut,
	} {
		for c := 0; c < n/chunkLen; c++ {
			if !seen[st][c] {
				t.Errorf("stage %v missing chunk %d", st, c)
			}
		}
	}
}

// allocsForChunks measures total allocations of an unobserved Run over
// the given chunk count.
func allocsForChunks(t *testing.T, numChunks int) float64 {
	t.Helper()
	const chunkLen = 64
	src := make([]int64, numChunks*chunkLen)
	dst := make([]int64, len(src))
	s := stagedIncrement(src, dst, chunkLen, 1)
	return testing.AllocsPerRun(10, func() {
		if err := exec.Run(s, 3); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNoObserverNoPerChunkAllocations is the acceptance guard: with a nil
// Observer, Run's allocation count must not grow with the chunk count —
// the per-chunk hot path allocates nothing.
func TestNoObserverNoPerChunkAllocations(t *testing.T) {
	few := allocsForChunks(t, 8)
	many := allocsForChunks(t, 128)
	if many > few {
		t.Errorf("allocations grew with chunk count: %v @8 chunks vs %v @128 chunks", few, many)
	}
}

// BenchmarkRunNoTelemetry tracks the unobserved pipeline's per-chunk cost
// (allocs/op must stay flat as telemetry features are added).
func BenchmarkRunNoTelemetry(b *testing.B) {
	benchmarkRun(b, nil)
}

// BenchmarkRunWithTelemetry is the same pipeline with a live recorder,
// quantifying the observer's overhead.
func BenchmarkRunWithTelemetry(b *testing.B) {
	benchmarkRun(b, telemetry.NewRecorder())
}

func benchmarkRun(b *testing.B, rec *telemetry.Recorder) {
	const n, chunkLen = 1 << 16, 1 << 10
	src := workload.Generate(workload.Random, n, 1)
	dst := make([]int64, n)
	s := stagedIncrement(src, dst, chunkLen, 1)
	if rec != nil {
		s.Observer = rec
	}
	b.SetBytes(int64(n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec != nil {
			rec.Reset()
		}
		if err := exec.Run(s, 3); err != nil {
			b.Fatal(err)
		}
	}
}
