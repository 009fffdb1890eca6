package mlmsort

import (
	"sync/atomic"

	"knlmlm/internal/model"
)

// WidthControl lets an external owner — the job scheduler sharing one
// machine between concurrent sorts — adjust a staged run's copy and
// compute pool widths while the run executes. The run reads the widths
// at every megachunk boundary, so a SetPools lands within one megachunk.
//
// When a run also autotunes, the tuner writes its solved split through
// the same control, so its owner observes (and can override) what the
// run settled on. The zero value is not usable; construct with
// NewWidthControl.
type WidthControl struct {
	copyIn atomic.Int32
	comp   atomic.Int32
}

// NewWidthControl returns a control pre-set to the given split.
func NewWidthControl(p model.Pools) *WidthControl {
	w := &WidthControl{}
	w.SetPools(p)
	return w
}

// SetPools applies a solved Equation 1-5 split: In is the copy width both
// ways (the staged pipeline copies in and out at the same width), Comp
// the megachunk sort's worker count. Non-positive fields leave the
// corresponding width unchanged, so a partial prediction cannot zero out
// a pool.
func (w *WidthControl) SetPools(p model.Pools) {
	if p.In > 0 {
		w.copyIn.Store(int32(p.In))
	}
	if p.Comp > 0 {
		w.comp.Store(int32(p.Comp))
	}
}

// Pools reports the current widths (Out mirrors In).
func (w *WidthControl) Pools() model.Pools {
	in := int(w.copyIn.Load())
	return model.Pools{In: in, Out: in, Comp: int(w.comp.Load())}
}
