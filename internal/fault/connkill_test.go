package fault

import (
	"testing"

	"knlmlm/internal/exec"
)

// TestConnKillTargetsOneBackend: a rate-1 ConnKill spec scoped to one
// backend index must refuse every dial to that backend and none to its
// peers — the deterministic analog of SIGKILLing one node of a tier.
func TestConnKillTargetsOneBackend(t *testing.T) {
	in := MustNewInjector(7, Spec{
		Stage:  exec.StageCopyIn,
		Kind:   ConnKill,
		Rate:   1,
		Chunks: []int{1},
	})
	for attempt := 0; attempt < 5; attempt++ {
		if in.FailDial(0) {
			t.Fatalf("attempt %d: backend 0 dial refused by a spec targeting backend 1", attempt)
		}
		if !in.FailDial(1) {
			t.Fatalf("attempt %d: backend 1 dial survived a rate-1 ConnKill", attempt)
		}
	}
	if got := in.Counts()[ConnKill]; got != 5 {
		t.Fatalf("ConnKill tally %d, want 5", got)
	}
}

// TestConnKillModesAreIndependent: dial-refusal (StageCopyIn) and
// stream-sever (StageCopyOut) decisions consult separate specs, so a
// chaos plan can cut an in-flight download without also refusing the
// retry's fresh connection.
func TestConnKillModesAreIndependent(t *testing.T) {
	in := MustNewInjector(3, Spec{
		Stage:   exec.StageCopyOut,
		Kind:    ConnKill,
		Rate:    1,
		Chunks:  []int{0},
		MaxHits: 1,
	})
	if !in.FailStream(0) {
		t.Fatal("first stream read survived a rate-1 stream ConnKill")
	}
	if in.FailStream(0) {
		t.Fatal("MaxHits=1 stream ConnKill fired twice")
	}
	if in.FailDial(0) {
		t.Fatal("dial refused by a stream-sever spec")
	}
}

// TestConnKillDeterministicSchedule: with a fractional rate the
// per-(mode, backend, attempt) decisions must replay identically across
// injectors built from the same seed — what makes a failing cluster
// chaos run a reproducible bug report.
func TestConnKillDeterministicSchedule(t *testing.T) {
	build := func() *Injector {
		return MustNewInjector(99,
			Spec{Stage: exec.StageCopyIn, Kind: ConnKill, Rate: 0.4},
			Spec{Stage: exec.StageCopyOut, Kind: ConnKill, Rate: 0.25},
		)
	}
	a, b := build(), build()
	for backend := 0; backend < 4; backend++ {
		for attempt := 0; attempt < 32; attempt++ {
			if got, want := a.FailDial(backend), b.FailDial(backend); got != want {
				t.Fatalf("backend %d attempt %d: dial decision diverged", backend, attempt)
			}
			if got, want := a.FailStream(backend), b.FailStream(backend); got != want {
				t.Fatalf("backend %d attempt %d: stream decision diverged", backend, attempt)
			}
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("tallies diverged: %v vs %v", a.Counts(), b.Counts())
	}
}

// TestConnKillDoesNotLeakIntoStages: a ConnKill spec must never fire
// through stage wrapping or spill IO decisions.
func TestConnKillDoesNotLeakIntoStages(t *testing.T) {
	in := MustNewInjector(1, Spec{Stage: exec.StageCopyIn, Kind: ConnKill, Rate: 1})
	st := in.Wrap(exec.Stages{
		NumChunks: 1,
		ChunkLen:  func(int) int { return 1 },
		CopyIn:    func(int, []int64) error { return nil },
		Compute:   func(int, []int64) error { return nil },
		CopyOut:   func(int, []int64) error { return nil },
	})
	buf := make([]int64, 1)
	for chunk := 0; chunk < 3; chunk++ {
		if err := st.CopyIn(chunk, buf); err != nil {
			t.Fatalf("CopyIn: ConnKill leaked into stage wrapping: %v", err)
		}
		if err := st.Compute(chunk, buf); err != nil {
			t.Fatalf("Compute: %v", err)
		}
	}
	if in.FailRead(0) || in.FailWrite(0) {
		t.Fatal("ConnKill leaked into spill IO decisions")
	}
	if got := in.Counts()[ConnKill]; got != 0 {
		t.Fatalf("ConnKill fired %d times with no conn decision consulted", got)
	}
}
