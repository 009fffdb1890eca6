package mlmsort

import (
	"testing"

	"knlmlm/internal/exec"
	"knlmlm/internal/report"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

// TestRunRealObservedStagedSpans checks that an observed MLM-sort run
// records copy-in, compute and copy-out for every megachunk plus the
// final merge, with byte attribution matching the data actually staged.
func TestRunRealObservedStagedSpans(t *testing.T) {
	const n = 40_000
	const mc = 10_000 // 4 megachunks
	xs := workload.Generate(workload.Random, n, 5)
	rec := telemetry.NewRecorder()
	if err := RunRealObserved(MLMSort, xs, 4, mc, rec); err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) {
		t.Fatal("output not sorted")
	}
	perStage := map[exec.Stage]int{}
	var mergeSeen bool
	for _, s := range rec.Spans() {
		perStage[s.Stage]++
		if s.Chunk == -1 && s.Stage == exec.StageCompute {
			mergeSeen = true
		}
	}
	const megachunks = n / mc
	if perStage[exec.StageCopyIn] != megachunks || perStage[exec.StageCopyOut] != megachunks {
		t.Errorf("copy spans = %d in / %d out, want %d each",
			perStage[exec.StageCopyIn], perStage[exec.StageCopyOut], megachunks)
	}
	if perStage[exec.StageCompute] != megachunks+1 { // + final merge
		t.Errorf("compute spans = %d, want %d", perStage[exec.StageCompute], megachunks+1)
	}
	if !mergeSeen {
		t.Error("no whole-array span for the final merge")
	}
	bytes := rec.BytesByStage()
	if want := int64(n) * 8; bytes[exec.StageCopyIn] != want || bytes[exec.StageCopyOut] != want {
		t.Errorf("staged bytes in/out = %d/%d, want %d each",
			bytes[exec.StageCopyIn], bytes[exec.StageCopyOut], want)
	}
}

// TestRunRealObservedUnstagedVariants: in-place variants must record
// compute spans only (no copies happen, none may be claimed).
func TestRunRealObservedUnstagedVariants(t *testing.T) {
	for _, a := range []Algorithm{GNUFlat, MLMDDr, MLMImplicit, BasicChunked} {
		xs := workload.Generate(workload.Random, 20_000, 9)
		rec := telemetry.NewRecorder()
		if err := RunRealObserved(a, xs, 4, 0, rec); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !workload.IsSorted(xs) {
			t.Fatalf("%v: not sorted", a)
		}
		b := rec.BytesByStage()
		if b[exec.StageCopyIn] != 0 || b[exec.StageCopyOut] != 0 {
			t.Errorf("%v: in-place variant recorded copy bytes %d/%d",
				a, b[exec.StageCopyIn], b[exec.StageCopyOut])
		}
		if rec.Len() == 0 {
			t.Errorf("%v: no spans recorded", a)
		}
	}
}

// TestRunRealObservedNilRecorder: the nil-recorder path must behave
// exactly like RunReal.
func TestRunRealObservedNilRecorder(t *testing.T) {
	xs := workload.Generate(workload.Reverse, 10_000, 2)
	if err := RunRealObserved(MLMSort, xs, 4, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) {
		t.Error("not sorted")
	}
}

// TestObservedRunAnalyzable: the recorded spans must drive the analyzer
// end to end — non-zero wall time, all megachunks seen.
func TestObservedRunAnalyzable(t *testing.T) {
	xs := workload.Generate(workload.Random, 40_000, 7)
	rec := telemetry.NewRecorder()
	if err := RunRealObserved(MLMSort, xs, 4, 10_000, rec); err != nil {
		t.Fatal(err)
	}
	a := report.Analyze(rec.Spans())
	if a.Chunks != 4 {
		t.Errorf("analyzer saw %d chunks, want 4", a.Chunks)
	}
	if a.Wall <= 0 || a.TComp <= 0 {
		t.Errorf("degenerate analysis: wall=%v tcomp=%v", a.Wall, a.TComp)
	}
	// The driver loop is serial: copy and compute cannot overlap, so
	// overlap efficiency must be ~0 and pipeline efficiency < 1. (This is
	// exactly the kind of fact the telemetry exists to surface.)
	if a.OverlapEfficiency > 0.01 {
		t.Errorf("serial staging reported overlap efficiency %v", a.OverlapEfficiency)
	}
}
