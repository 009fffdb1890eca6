package mlmsim

import (
	"testing"

	"knlmlm/internal/mlmsort"
	"knlmlm/internal/workload"
)

func TestPreferredModeWiring(t *testing.T) {
	if Mode(mlmsort.GNUPreferred).String() != "flat" {
		t.Fatalf("GNU-preferred mode = %v, want flat", Mode(mlmsort.GNUPreferred))
	}
	if mlmsort.GNUPreferred.String() != "GNU-preferred" {
		t.Fatalf("name = %q", mlmsort.GNUPreferred.String())
	}
}

// The Li et al. configuration sits between the do-nothing DDR baseline and
// explicit chunking: better than GNU-flat (some data lands in MCDRAM),
// worse than MLM-sort (no streaming reuse of the fast level).
func TestPreferredBetweenFlatAndChunked(t *testing.T) {
	for _, n := range []int64{2_000_000_000, 4_000_000_000} {
		cfg := PaperSortConfig(n, workload.Random)
		flat := Simulate(mlmsort.GNUFlat, cfg).Time.Seconds()
		pref := Simulate(mlmsort.GNUPreferred, cfg).Time.Seconds()
		mlm := Simulate(mlmsort.MLMSort, cfg).Time.Seconds()
		if pref >= flat {
			t.Errorf("n=%d: preferred (%.2fs) should beat GNU-flat (%.2fs)", n, pref, flat)
		}
		if pref <= mlm {
			t.Errorf("n=%d: preferred (%.2fs) should lose to MLM-sort (%.2fs)", n, pref, mlm)
		}
	}
}

// The preferred gain over GNU-flat is real but modest at every size — the
// point of the paper's contrast with Li et al.: --preferred placement
// without chunking leaves most of the explicit-management win on the
// table. (MLM-sort's gain over GNU-flat is ~1.4-1.5x at these sizes.)
func TestPreferredGainModest(t *testing.T) {
	for _, n := range []int64{2_000_000_000, 4_000_000_000, 6_000_000_000} {
		cfg := PaperSortConfig(n, workload.Random)
		flat := Simulate(mlmsort.GNUFlat, cfg).Time.Seconds()
		pref := Simulate(mlmsort.GNUPreferred, cfg).Time.Seconds()
		mlm := Simulate(mlmsort.MLMSort, cfg).Time.Seconds()
		gain := flat / pref
		if gain <= 1.0 || gain >= 1.3 {
			t.Errorf("n=%d: preferred gain %.3fx outside the modest band", n, gain)
		}
		if flat/mlm <= gain {
			t.Errorf("n=%d: chunking's gain (%.3fx) should exceed preferred's (%.3fx)",
				n, flat/mlm, gain)
		}
	}
}
