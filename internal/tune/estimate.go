package tune

import (
	"math"
	"time"

	"knlmlm/internal/model"
	"knlmlm/internal/units"
)

// ServiceEstimate decomposes a job's model-predicted service time into
// the phases the scheduler's admission control sums: the Equation 1-5
// pipeline wall time at the job's thread share, plus — for spill-class
// jobs — the run-file write time at the measured sequential disk rate.
type ServiceEstimate struct {
	// Run is the staged pipeline's predicted wall time (Eq. 1).
	Run time.Duration
	// SpillWrite is the additional run-file write time for spill-class
	// jobs (zero for in-memory jobs or when no disk rate was measured).
	SpillWrite time.Duration
}

// Total is the job's whole predicted service time.
func (e ServiceEstimate) Total() time.Duration { return e.Run + e.SpillWrite }

// EstimateService solves Equations 1-5 for one job of the given byte
// volume at the given thread share, using the rates in p (the same
// parameter set the fair-share solver uses), and returns the
// predicted service time. spill adds the run-file write time at the
// measured disk rate — phase 1 of a spill job streams every byte through
// the disk once more than the in-memory pipeline does.
//
// The estimate is deliberately conservative in the cheap direction:
// degenerate inputs (no bytes, unvalidatable rates) yield a zero
// estimate, which admission control treats as "no information" rather
// than "instant" — a zero never causes a rejection on its own.
func EstimateService(p model.Params, bytes units.Bytes, threads int, spill bool, disk DiskRate) ServiceEstimate {
	if bytes <= 0 {
		return ServiceEstimate{}
	}
	if threads < 3 {
		// The model needs all three pools populated.
		threads = 3
	}
	p.BCopy = bytes
	if p.Validate() != nil {
		return ServiceEstimate{}
	}
	maxIn := threads / 2
	if maxIn < 1 {
		maxIn = 1
	}
	var est ServiceEstimate
	if t := p.Optimal(threads, maxIn, 1).TTotal.Seconds(); t > 0 && !math.IsInf(t, 1) {
		est.Run = time.Duration(t * float64(time.Second))
	}
	if spill && disk.Write > 0 {
		est.SpillWrite = time.Duration(float64(bytes) / float64(disk.Write) * float64(time.Second))
	}
	return est
}
