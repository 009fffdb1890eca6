package mlmsim

import (
	"testing"

	"knlmlm/internal/mlmsort"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

func TestHybridModeWiring(t *testing.T) {
	if Mode(mlmsort.MLMHybrid).String() != "hybrid" {
		t.Fatalf("MLM-hybrid mode = %v", Mode(mlmsort.MLMHybrid))
	}
	m := Machine(mlmsort.MLMHybrid)
	if m.Scratchpad().Capacity() != 8*units.GiB {
		t.Errorf("hybrid scratchpad = %v, want 8 GiB", m.Scratchpad().Capacity())
	}
	if m.CacheCapacity() <= 0 {
		t.Error("hybrid cache partition missing")
	}
}

// The paper: "The hybrid mode shows near identical performance to flat,
// given a chunk size."
func TestHybridMatchesFlatAtSameChunkSize(t *testing.T) {
	cfg := PaperSortConfig(4_000_000_000, workload.Random)
	cfg.MegachunkElements = 1_000_000_000 // fits both partitions
	flat := Simulate(mlmsort.MLMSort, cfg).Time.Seconds()
	hybrid := Simulate(mlmsort.MLMHybrid, cfg).Time.Seconds()
	if rel := (hybrid - flat) / flat; rel < -0.02 || rel > 0.15 {
		t.Errorf("hybrid %.2fs vs flat %.2fs: rel diff %.3f not 'near identical'", hybrid, flat, rel)
	}
}

// "The chunk size in hybrid cannot be as large as the chunk size in flat
// mode" — the halved scratchpad rejects chunks the flat machine accepts.
func TestHybridChunkSizeLimit(t *testing.T) {
	cfg := PaperSortConfig(4_000_000_000, workload.Random)
	cfg.MegachunkElements = 2_000_000_000 // 16 GB: fits flat, not hybrid's 8 GiB

	if r := Simulate(mlmsort.MLMSort, cfg); r.Time <= 0 {
		t.Fatal("flat should accept a 16 GB megachunk")
	}
	defer func() {
		if recover() == nil {
			t.Error("hybrid should reject a 16 GB megachunk")
		}
	}()
	Simulate(mlmsort.MLMHybrid, cfg)
}

// The default hybrid megachunk respects the partition; end-to-end at 6 G it
// lands close to flat (which uses the bigger 1.5 G chunks) but not faster.
func TestHybridDefaultsAndOrdering(t *testing.T) {
	cfg := PaperSortConfig(6_000_000_000, workload.Random)
	if mc := cfg.megachunk(mlmsort.MLMHybrid); units.BytesForElements(mc) > 8*units.GiB {
		t.Fatalf("default hybrid megachunk %d exceeds the partition", mc)
	}
	flat := Simulate(mlmsort.MLMSort, cfg).Time.Seconds()
	hybrid := Simulate(mlmsort.MLMHybrid, cfg).Time.Seconds()
	if hybrid < flat*0.98 {
		t.Errorf("hybrid (%.2fs) should not beat flat (%.2fs): smaller chunks", hybrid, flat)
	}
	if hybrid > flat*1.2 {
		t.Errorf("hybrid (%.2fs) too far from flat (%.2fs)", hybrid, flat)
	}
}
