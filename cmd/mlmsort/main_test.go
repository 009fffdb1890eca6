package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knlmlm/internal/mlmsort"
	"knlmlm/internal/spill"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/workload"
)

// TestAutotuneAndChaosShareOneRegistry is the regression test for the
// flag-composition bug this wiring fixes: -autotune and -chaos used to
// publish into separate, discarded registries, so -metrics could never
// show both families from one run. The unified wiring must put
// autotune_*, faults_*, and pipeline_* into the SAME scrape — and the
// run must still sort correctly with both subsystems active.
func TestAutotuneAndChaosShareOneRegistry(t *testing.T) {
	const n = 300_000
	xs := workload.Generate(workload.Random, n, 1)

	reg := telemetry.NewRegistry()
	opts := mlmsort.RealOptions{}
	inj, res, _ := wireReal(&opts, reg, true, 6, true, 7, n)
	if inj == nil || res == nil {
		t.Fatal("wireReal did not build the chaos machinery")
	}

	stats, err := mlmsort.RunRealResilient(context.Background(), mlmsort.MLMSort, xs, 4, 0, opts)
	if err != nil {
		t.Fatalf("RunRealResilient: %v", err)
	}
	if !workload.IsSorted(xs) {
		t.Fatal("output not sorted with -autotune -chaos composed")
	}
	if stats.Megachunks == 0 || opts.Pool == nil {
		t.Fatalf("run did not stage through the chaos MCDRAM pool: %+v", stats)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	scrape := buf.String()
	for _, family := range []string{
		"autotune_reprovisions_total", // -autotune's registry output
		"autotune_copy_in_threads",
		"faults_injected_total", // -chaos's resilience output
		"pipeline_completions_total",
	} {
		if !strings.Contains(scrape, family) {
			t.Errorf("one-registry scrape is missing %s:\n%s", family, scrape)
		}
	}
}

// cancelOnRead cancels the sort at its final merge's first run-file
// read, once phase 1 has written every run.
type cancelOnRead struct{ cancel context.CancelFunc }

func (c cancelOnRead) FailWrite(int) bool { return false }
func (c cancelOnRead) FailRead(int) bool  { c.cancel(); return false }

// TestSpillSortLeavesNoStore: -spill's store is gone when spillSort
// returns, after a verified sort, a run refused by the disk budget, and a
// merge cancelled mid-stream alike.
func TestSpillSortLeavesNoStore(t *testing.T) {
	const n, megachunk = 40_000, 10_000
	for _, tc := range []struct {
		name    string
		cfg     func(spill.Config, context.CancelFunc) spill.Config
		wantErr func(error) bool
	}{
		{"sorted", func(c spill.Config, _ context.CancelFunc) spill.Config { return c }, nil},
		{"over-budget", func(c spill.Config, _ context.CancelFunc) spill.Config {
			c.MaxBytes = megachunk*8 - 1 // below one run
			return c
		}, func(err error) bool { var be *spill.BudgetError; return errors.As(err, &be) }},
		{"cancelled", func(c spill.Config, cancel context.CancelFunc) spill.Config {
			c.Faults = cancelOnRead{cancel}
			return c
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			xs := workload.Generate(workload.Random, n, 1)
			_, runs, written, err := spillSort(ctx, mlmsort.MLMSort, xs, 2, megachunk,
				mlmsort.RealOptions{}, tc.cfg(spill.Config{Dir: dir}, cancel))
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("spillSort: %v", err)
			case tc.wantErr == nil && (!workload.IsSorted(xs) || runs != n/megachunk || written != n*8):
				t.Fatalf("sorted=%v runs=%d written=%d, want sorted, %d runs, %d bytes",
					workload.IsSorted(xs), runs, written, n/megachunk, n*8)
			case tc.wantErr != nil && !tc.wantErr(err):
				t.Fatalf("spillSort = %v, want the %s error", err, tc.name)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				t.Errorf("%s left %s under the spill directory", tc.name, e.Name())
			}
		})
	}
}

// TestFailedRunWritesProfiles: a run that fails (its runs overflow the
// disk budget) still stops its profiles, so both files hold a profile.
func TestFailedRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	err := run([]string{"-spill", "-n", "400000", "-threads", "2", "-spill-budget-mb", "1",
		"-spill-dir", dir, "-cpuprofile", cpu, "-memprofile", mem})
	var be *spill.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("run = %v, want the disk budget's error", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s after a failed run: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}
