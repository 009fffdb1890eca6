// Package tune closes the loop between the paper's Section 3.2 analytic
// model and the telemetry layer: a PipelineTuner watches the first
// megachunks of a real run through the exec.Observer interface, measures
// the per-thread copy and compute rates those stages actually achieved on
// this host (the quantities the paper obtains offline with STREAM-style
// microbenchmarks, Table 2), re-solves the Equation 1-5 copy-thread
// provisioning with the measured rates, and hands the winning thread
// split back to the running pipeline.
//
// The paper provisions copy threads from constants measured once per
// machine; the tuner replaces that with an online warmup measurement, so
// a run provisioned badly for the host it landed on converges to the
// model's optimum mid-run instead of finishing copy- or compute-starved.
package tune

import (
	"sync"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/model"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
)

// Config parameterizes a PipelineTuner.
type Config struct {
	// Initial is the thread split the pipeline starts with; the measured
	// per-thread rates are normalized by these widths.
	Initial model.Pools
	// TotalThreads is the thread budget the re-solve distributes
	// (symmetric pools: In == Out, rest compute).
	TotalThreads int
	// MaxCopyIn bounds the copy-in width the sweep considers; zero
	// selects TotalThreads/2 - the widest split leaving one computer.
	MaxCopyIn int
	// Passes is the model's algorithm pass count; zero selects 1.
	Passes float64
	// WarmupChunks is how many chunks must finish copy-out (or compute,
	// for pipelines without one) before the tuner solves; zero selects 1.
	WarmupChunks int
	// Bytes is the dataset size handed to the model. The argmin over
	// thread splits is independent of it, so any positive value works;
	// zero selects the bytes observed during warmup.
	Bytes units.Bytes
	// DDRMax and MCDRAMMax cap the model's aggregate bandwidths; zero
	// leaves the corresponding ceiling effectively unbounded, which is
	// the right default when nothing is known about the host.
	DDRMax, MCDRAMMax units.BytesPerSec
	// OnProvision receives the solved prediction exactly once, after
	// warmup. The callback runs inline on a stage goroutine and must be
	// quick (typically a couple of atomic stores).
	OnProvision func(model.Prediction)
	// Registry, when non-nil, receives the tuner's metrics:
	// autotune_reprovisions_total plus gauges for the measured rates and
	// the chosen widths.
	Registry *telemetry.Registry
	// Next, when non-nil, receives every stage event after the tuner's
	// accounting (chain a telemetry.Recorder here to keep full tracing).
	Next exec.Observer
}

// PipelineTuner accumulates warmup-stage measurements and fires one
// re-provisioning decision. It implements exec.Observer and is safe for
// concurrent use by the pipeline's stage goroutines.
type PipelineTuner struct {
	cfg Config

	mu         sync.Mutex
	copyBusy   time.Duration // copy-in plus copy-out busy time
	compBusy   time.Duration
	copyBytes  int64
	compBytes  int64
	chunksDone int
	fired      bool
	decision   model.Prediction
}

// NewPipelineTuner validates and applies Config defaults.
func NewPipelineTuner(cfg Config) *PipelineTuner {
	if cfg.TotalThreads < 3 {
		cfg.TotalThreads = 3 // smallest budget with all three pools populated
	}
	if cfg.MaxCopyIn <= 0 {
		cfg.MaxCopyIn = cfg.TotalThreads / 2
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 1
	}
	if cfg.WarmupChunks <= 0 {
		cfg.WarmupChunks = 1
	}
	if cfg.Initial.In <= 0 {
		cfg.Initial.In = 1
	}
	if cfg.Initial.Out <= 0 {
		cfg.Initial.Out = 1
	}
	if cfg.Initial.Comp <= 0 {
		cfg.Initial.Comp = 1
	}
	return &PipelineTuner{cfg: cfg}
}

// StageEvent implements exec.Observer: account the span, and solve once
// enough chunks have completed.
func (t *PipelineTuner) StageEvent(e exec.StageEvent) {
	if t.cfg.Next != nil {
		t.cfg.Next.StageEvent(e)
	}
	if e.Stage.IsWait() {
		return
	}
	var fire bool
	var dec model.Prediction
	t.mu.Lock()
	if !t.fired {
		d := e.End.Sub(e.Start)
		switch e.Stage {
		case exec.StageCopyIn, exec.StageCopyOut:
			t.copyBusy += d
			t.copyBytes += e.Bytes
		case exec.StageCompute:
			t.compBusy += d
			t.compBytes += e.Bytes
		}
		// A chunk is done when its last stage finishes; pipelines without
		// copy-out finish at compute.
		if e.Stage == exec.StageCopyOut || (e.Stage == exec.StageCompute && t.copyBytes == 0) {
			t.chunksDone++
			if t.chunksDone >= t.cfg.WarmupChunks {
				dec, fire = t.solveLocked()
				t.fired = fire
				t.decision = dec
			}
		}
	}
	t.mu.Unlock()
	if fire {
		t.publish(dec)
		if t.cfg.OnProvision != nil {
			t.cfg.OnProvision(dec)
		}
	}
}

// solveLocked turns the accumulated warmup measurements into a model
// solve. It reports ok=false when the warmup produced no usable rates
// (e.g. zero-duration spans on a coarse clock), in which case the tuner
// keeps waiting for more chunks.
func (t *PipelineTuner) solveLocked() (model.Prediction, bool) {
	if t.compBusy <= 0 || t.compBytes <= 0 {
		return model.Prediction{}, false
	}
	init := t.cfg.Initial
	// Per-thread streaming rates: bytes over thread-seconds. The span
	// conventions already match the model's byte accounting (8 bytes per
	// element per copy direction; 16 touched bytes per element computed),
	// so these divide out to the model's S_copy and S_comp directly.
	sComp := units.BytesPerSec(float64(t.compBytes) / (t.compBusy.Seconds() * float64(init.Comp)))
	sCopy := sComp // no copy stages observed: any split predicts the same
	if t.copyBusy > 0 && t.copyBytes > 0 {
		// Copy-in and copy-out run at the configured widths inside their
		// single stage goroutines, so busy seconds are split across both
		// pools' thread counts.
		sCopy = units.BytesPerSec(float64(t.copyBytes) / (t.copyBusy.Seconds() * float64(init.In+init.Out) / 2))
	}
	if sCopy <= 0 || sComp <= 0 {
		return model.Prediction{}, false
	}
	b := t.cfg.Bytes
	if b <= 0 {
		b = units.Bytes(t.copyBytes + t.compBytes)
	}
	ddr, mcdram := t.cfg.DDRMax, t.cfg.MCDRAMMax
	if ddr <= 0 {
		// Uncapped: the host has no measured ceiling, so never enter the
		// model's bandwidth-saturated regimes.
		ddr = units.BytesPerSec(float64(sCopy) * 1e6)
	}
	if mcdram <= 0 {
		mcdram = units.BytesPerSec(float64(sComp) * 1e6)
	}
	p := model.Params{BCopy: b, DDRMax: ddr, MCDRAMMax: mcdram, SCopy: sCopy, SComp: sComp}
	return p.Optimal(t.cfg.TotalThreads, t.cfg.MaxCopyIn, t.cfg.Passes), true
}

// publish mirrors the decision into the configured metrics registry.
func (t *PipelineTuner) publish(dec model.Prediction) {
	reg := t.cfg.Registry
	if reg == nil {
		return
	}
	reg.Counter("autotune_reprovisions_total",
		"pipeline re-provisioning decisions applied", nil).Add(1)
	reg.Gauge("autotune_copy_in_threads", "solved copy-in pool width", nil).Set(float64(dec.Pools.In))
	reg.Gauge("autotune_copy_out_threads", "solved copy-out pool width", nil).Set(float64(dec.Pools.Out))
	reg.Gauge("autotune_compute_threads", "solved compute pool width", nil).Set(float64(dec.Pools.Comp))
	reg.Gauge("autotune_c_copy_bytes_per_sec", "model effective per-thread copy rate", nil).Set(float64(dec.CCopy))
	reg.Gauge("autotune_c_comp_bytes_per_sec", "model effective per-thread compute rate", nil).Set(float64(dec.CComp))
}

// Decision reports the fired re-provisioning, if any.
func (t *PipelineTuner) Decision() (model.Prediction, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.decision, t.fired
}
