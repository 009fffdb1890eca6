package tune

import (
	"sync"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/model"
	"knlmlm/internal/telemetry"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func ev(stage exec.Stage, chunk int, dur time.Duration, bytes int64) exec.StageEvent {
	return exec.StageEvent{
		Stage: stage, Chunk: chunk, Start: epoch, End: epoch.Add(dur), Bytes: bytes,
	}
}

// feedChunk pushes one chunk's three work spans through the tuner.
func feedChunk(t *PipelineTuner, chunk int, copyDur, compDur time.Duration) {
	const elems = 1_000_000
	t.StageEvent(ev(exec.StageCopyIn, chunk, copyDur, elems*8))
	t.StageEvent(ev(exec.StageCompute, chunk, compDur, elems*16))
	t.StageEvent(ev(exec.StageCopyOut, chunk, copyDur, elems*8))
}

func TestTunerCopyBoundWidensCopyPool(t *testing.T) {
	var got model.Prediction
	fired := 0
	reg := telemetry.NewRegistry()
	tu := NewPipelineTuner(Config{
		Initial:      model.Pools{In: 1, Out: 1, Comp: 6},
		TotalThreads: 8,
		maxCopyIn:    3,
		warmupChunks: 2,
		Registry:     reg,
		OnProvision: func(p model.Prediction) {
			fired++
			got = p
		},
	})
	// Slow copies, fast compute: the model should trade compute threads
	// for copy threads.
	feedChunk(tu, 0, time.Second, 10*time.Millisecond)
	if _, ok := tu.Decision(); ok {
		t.Fatal("fired before warmup completed")
	}
	feedChunk(tu, 1, time.Second, 10*time.Millisecond)
	if fired != 1 {
		t.Fatalf("OnProvision fired %d times, want 1", fired)
	}
	if got.Pools.In != 3 {
		t.Errorf("copy-bound solve chose In=%d, want 3 (the max)", got.Pools.In)
	}
	if !got.CopyBound {
		t.Error("prediction should be copy-bound")
	}
	// Warmup over: further chunks must not re-fire.
	feedChunk(tu, 2, time.Second, 10*time.Millisecond)
	if fired != 1 {
		t.Errorf("re-fired after warmup: %d", fired)
	}
	if v := reg.Counter("autotune_reprovisions_total", "", nil).Value(); v != 1 {
		t.Errorf("autotune_reprovisions_total = %d, want 1", v)
	}
}

func TestTunerComputeBoundKeepsCopyNarrow(t *testing.T) {
	var got model.Prediction
	tu := NewPipelineTuner(Config{
		Initial:      model.Pools{In: 1, Out: 1, Comp: 6},
		TotalThreads: 8,
		maxCopyIn:    3,
		OnProvision:  func(p model.Prediction) { got = p },
	})
	feedChunk(tu, 0, time.Millisecond, time.Second)
	if got.Pools.In != 1 {
		t.Errorf("compute-bound solve chose In=%d, want 1", got.Pools.In)
	}
	if got.Pools.Comp != 6 {
		t.Errorf("compute-bound solve chose Comp=%d, want 6", got.Pools.Comp)
	}
	if got.CopyBound {
		t.Error("prediction should be compute-bound")
	}
}

func TestTunerComputeOnlyPipeline(t *testing.T) {
	// No copy stages at all (the in-place variants): the tuner still
	// fires, and any split predicts the same total, so it must not crash.
	fired := 0
	tu := NewPipelineTuner(Config{
		Initial:      model.Pools{In: 1, Out: 1, Comp: 4},
		TotalThreads: 6,
		warmupChunks: 1,
		OnProvision:  func(model.Prediction) { fired++ },
	})
	tu.StageEvent(ev(exec.StageCompute, 0, time.Second, 1_000_000*16))
	if fired != 1 {
		t.Fatalf("compute-only pipeline fired %d times, want 1", fired)
	}
}

func TestTunerZeroDurationWarmupWaits(t *testing.T) {
	// Coarse clocks can produce zero-duration spans; the tuner must wait
	// for usable data instead of dividing by zero.
	fired := 0
	tu := NewPipelineTuner(Config{
		Initial:      model.Pools{In: 1, Out: 1, Comp: 4},
		TotalThreads: 6,
		warmupChunks: 1,
		OnProvision:  func(model.Prediction) { fired++ },
	})
	feedChunk(tu, 0, 0, 0)
	if fired != 0 {
		t.Fatal("fired on zero-duration warmup")
	}
	feedChunk(tu, 1, time.Millisecond, time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times once real data arrived, want 1", fired)
	}
}

type captureObs struct {
	mu sync.Mutex
	n  int
}

func (c *captureObs) StageEvent(exec.StageEvent) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func TestTunerChainsNextObserver(t *testing.T) {
	next := &captureObs{}
	tu := NewPipelineTuner(Config{Next: next, warmupChunks: 100})
	feedChunk(tu, 0, time.Millisecond, time.Millisecond)
	tu.StageEvent(ev(exec.StageComputeWait, 1, time.Millisecond, 0))
	if next.n != 4 {
		t.Errorf("next observer saw %d events, want all 4", next.n)
	}
}

func TestTunerConcurrentEvents(t *testing.T) {
	tu := NewPipelineTuner(Config{
		Initial:      model.Pools{In: 1, Out: 1, Comp: 6},
		TotalThreads: 8,
		warmupChunks: 50,
		OnProvision:  func(model.Prediction) {},
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				feedChunk(tu, g*100+i, time.Millisecond, time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if _, ok := tu.Decision(); !ok {
		t.Error("concurrent warmup never fired")
	}
}
