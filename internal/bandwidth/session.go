package bandwidth

import (
	"fmt"
	"math"

	"knlmlm/internal/units"
)

// Session is an incremental fluid simulation: flows join at arbitrary
// times, rates are re-solved after every membership change, and the caller
// advances virtual time explicitly. It is the mechanism behind the
// event-driven (non-barrier) pipeline in internal/chunk, where a copy-in
// for chunk k+1 starts the moment a buffer frees rather than at a step
// boundary.
//
// The flow of control is: Add flows, then alternately call NextCompletion
// to learn when the earliest active flow finishes and AdvanceTo to move the
// clock (progressing all flows at their current rates). Completed flows are
// retired automatically during AdvanceTo.
type Session struct {
	sys        *System
	now        units.Time
	active     []*Flow
	background []*Flow
	bytes      []units.Bytes // per-device traffic integral
}

// NewSession creates an empty session at time zero.
func NewSession(sys *System) *Session {
	return &Session{sys: sys, bytes: make([]units.Bytes, len(sys.devices))}
}

// Now reports the session clock.
func (s *Session) Now() units.Time { return s.now }

// Active reports the currently running flows.
func (s *Session) Active() []*Flow { return append([]*Flow(nil), s.active...) }

// DeviceBytes reports the traffic device d has carried so far.
func (s *Session) DeviceBytes(d DeviceID) units.Bytes { return s.bytes[int(d)] }

// Add introduces a flow at the current time and re-solves rates. A flow
// with zero work completes immediately and is not added. Flows that can
// never progress panic as in Run.
func (s *Session) Add(f *Flow) {
	if err := f.validate(s.sys); err != nil {
		panic(err)
	}
	f.remaining = f.Work
	f.done = false
	if f.Work <= 0 {
		f.done = true
		return
	}
	if f.Threads == 0 || f.PerThreadCap == 0 {
		panic(fmt.Sprintf("bandwidth: flow %q has work but no capacity to progress", f.Label))
	}
	s.active = append(s.active, f)
	s.reallocate()
}

// AddBackground introduces a background (spin) flow that consumes
// bandwidth for the rest of the session; see Flow.Background.
func (s *Session) AddBackground(f *Flow) {
	if err := f.validate(s.sys); err != nil {
		panic(err)
	}
	f.Background = true
	s.background = append(s.background, f)
	s.reallocate()
}

func (s *Session) reallocate() {
	all := append(append([]*Flow(nil), s.background...), s.active...)
	if len(all) > 0 {
		s.sys.Allocate(all)
	}
}

// NextCompletion reports when the earliest active flow would finish at
// current rates, and that flow. With no active flows it returns
// (units.Inf, nil).
func (s *Session) NextCompletion() (units.Time, *Flow) {
	at := units.Inf
	var who *Flow
	starved := 0
	for _, f := range s.active {
		if f.rate <= 0 {
			starved++ // legal: pre-empted by a higher priority class
			continue
		}
		if t := s.now + units.TimeToMove(f.remaining, f.rate); t < at {
			at = t
			who = f
		}
	}
	if who == nil && starved > 0 {
		panic("bandwidth: all active session flows starved — allocation deadlock")
	}
	return at, who
}

// AdvanceTo moves the clock to t, progressing all active flows, retiring
// the ones that complete, and re-solving rates if membership changed. It
// returns the flows that completed during the advance. Moving backwards
// panics.
//
// If a flow would complete strictly before t, the advance still applies
// rates piecewise-correctly: the session advances to each intermediate
// completion, re-solves, and continues, so the caller may jump past several
// completions in one call.
func (s *Session) AdvanceTo(t units.Time) []*Flow {
	if t < s.now {
		panic(fmt.Sprintf("bandwidth: AdvanceTo(%v) before now %v", t, s.now))
	}
	var completed []*Flow
	for {
		next, _ := s.NextCompletion()
		seg := t
		if next < seg {
			seg = next
		}
		dt := seg - s.now
		if dt > 0 {
			for _, f := range s.active {
				moved := units.Bytes(float64(f.rate) * float64(dt))
				if moved > f.remaining {
					moved = f.remaining
				}
				f.remaining -= moved
				for d, coeff := range f.Demand {
					s.bytes[int(d)] += units.Bytes(coeff * float64(moved))
				}
			}
			for _, f := range s.background {
				moved := float64(f.rate) * float64(dt)
				for d, coeff := range f.Demand {
					s.bytes[int(d)] += units.Bytes(coeff * moved)
				}
			}
			s.now = seg
		}
		// Retire flows that are done (within float tolerance).
		retired := false
		keep := s.active[:0]
		for _, f := range s.active {
			if float64(f.remaining) <= 1e-6*math.Max(1, float64(f.Work)) {
				f.remaining = 0
				f.done = true
				completed = append(completed, f)
				retired = true
				continue
			}
			keep = append(keep, f)
		}
		s.active = keep
		if retired && len(s.active)+len(s.background) > 0 {
			s.reallocate()
		}
		if s.now >= t || (next > t && !retired) {
			if s.now < t {
				s.now = t
			}
			return completed
		}
		if len(s.active) == 0 {
			if s.now < t {
				s.now = t
			}
			return completed
		}
	}
}
