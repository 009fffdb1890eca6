package exec

import "sync/atomic"

// Counters tallies the bytes a real pipeline moves per stage, mirroring
// the traffic accounting of the simulated pipeline (internal/chunk) so
// tests can cross-validate the two layers byte for byte.
type Counters struct {
	copyIn  atomic.Int64
	compute atomic.Int64
	copyOut atomic.Int64
}

// CopyInBytes reports bytes staged in.
func (c *Counters) CopyInBytes() int64 { return c.copyIn.Load() }

// ComputeBytes reports bytes touched by compute.
func (c *Counters) ComputeBytes() int64 { return c.compute.Load() }

// CopyOutBytes reports bytes drained out.
func (c *Counters) CopyOutBytes() int64 { return c.copyOut.Load() }

// Instrument wraps the stage set so every stage records its traffic in the
// returned Counters. Compute traffic is charged at touchedPerElem bytes per
// element (2*8 for a read+write sweep of int64 keys). The same charge is
// propagated to the stage set's telemetry attribution (TouchedPerElem), so
// an Observer attached to the instrumented stages sees byte totals that
// match the Counters byte for byte. Under retries both accountings are
// per attempt, so the correspondence holds for fault-free and retried
// runs alike (deadline-abandoned attempts excepted: their counter side
// settles only when the abandoned stage function returns).
func Instrument(s Stages, touchedPerElem int64) (Stages, *Counters) {
	c := &Counters{}
	out := s
	out.TouchedPerElem = touchedPerElem
	if s.CopyIn != nil {
		inner := s.CopyIn
		out.CopyIn = func(i int, buf []int64) error {
			c.copyIn.Add(int64(len(buf)) * 8)
			return inner(i, buf)
		}
	}
	innerCompute := s.Compute
	out.Compute = func(i int, buf []int64) error {
		// By chunk length, not len(buf): a compute-only run has no buffer.
		c.compute.Add(int64(s.ChunkLen(i)) * touchedPerElem)
		return innerCompute(i, buf)
	}
	if s.CopyOut != nil {
		inner := s.CopyOut
		out.CopyOut = func(i int, buf []int64) error {
			c.copyOut.Add(int64(len(buf)) * 8)
			return inner(i, buf)
		}
	}
	return out, c
}

// InstrumentObserved is Instrument plus a span hook: the returned stage
// set both counts traffic in the Counters and emits per-stage span events
// (work and wait) to obs when the pipeline runs. The two accountings use
// the same per-stage byte attribution, so telemetry totals can be
// cross-validated against the Counters exactly.
func InstrumentObserved(s Stages, touchedPerElem int64, obs Observer) (Stages, *Counters) {
	out, c := Instrument(s, touchedPerElem)
	out.Observer = obs
	return out, c
}
