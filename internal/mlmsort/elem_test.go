package mlmsort

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"knlmlm/internal/psort"
)

// recordJob builds an interleaved key/payload cell buffer with
// dup-heavy keys and payload = original record index, so a stability
// violation anywhere in the pipeline is visible as a payload swap.
func recordJob(rng *rand.Rand, records int) []int64 {
	xs := make([]int64, 2*records)
	for i := 0; i < records; i++ {
		xs[2*i] = rng.Int63n(64) // few distinct keys: long tied runs
		xs[2*i+1] = int64(i)
	}
	return xs
}

// sortedRecordsRef is the stable reference: the same cells through
// slices.SortStableFunc on the record view.
func sortedRecordsRef(xs []int64) []int64 {
	ref := slices.Clone(xs)
	slices.SortStableFunc(psort.KVsFromInt64s(ref), func(a, b psort.KV) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	return ref
}

// TestRecordRunRealResilient runs record jobs through every MLM variant
// and checks the output cell-for-cell against the stable reference —
// block sorts, megachunk merges, and the final merge must all preserve
// record integrity and first-appearance order of equal keys.
func TestRecordRunRealResilient(t *testing.T) {
	for _, a := range []Algorithm{MLMDDr, MLMSort, MLMImplicit, MLMHybrid} {
		t.Run(a.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			xs := recordJob(rng, 3000)
			want := sortedRecordsRef(xs)
			// Odd megachunk length: the run must align it up to whole
			// records instead of splitting one across a boundary.
			stats, err := RunRealResilient(context.Background(), a, xs, 3, 777, RealOptions{Elem: ElemKV})
			if err != nil {
				t.Fatalf("RunRealResilient: %v", err)
			}
			if a != MLMImplicit && stats.Megachunks < 2 {
				t.Fatalf("megachunks = %d, want multi-megachunk coverage", stats.Megachunks)
			}
			if !slices.Equal(xs, want) {
				for i := range xs {
					if xs[i] != want[i] {
						t.Fatalf("cell %d: got %d want %d", i, xs[i], want[i])
					}
				}
			}
		})
	}
}

// TestRecordElemValidation pins the fail-fast paths: record jobs reject
// odd cell counts and the algorithms that have no record data flow.
func TestRecordElemValidation(t *testing.T) {
	odd := []int64{3, 0, 1}
	if _, err := RunRealResilient(context.Background(), MLMSort, odd, 1, 0, RealOptions{Elem: ElemKV}); err == nil {
		t.Error("odd cell count accepted for ElemKV")
	}
	even := recordJob(rand.New(rand.NewSource(1)), 128)
	for _, a := range []Algorithm{GNUFlat, GNUCache, GNUPreferred, BasicChunked} {
		if _, err := RunRealResilient(context.Background(), a, slices.Clone(even), 2, 0, RealOptions{Elem: ElemKV}); err == nil {
			t.Errorf("%v accepted ElemKV; it has no record kernels", a)
		}
	}
	if _, err := RunRealResilient(context.Background(), MLMSort, odd, 1, 0, RealOptions{Elem: ElemKind(9)}); err == nil {
		t.Error("unknown ElemKind accepted")
	}
	if _, _, err := SpillSorted(context.Background(), MLMDDr, odd, 1, 0, ExternalOptions{RealOptions: RealOptions{Elem: ElemKV}}); err == nil {
		t.Error("SpillSorted accepted odd cell count for ElemKV")
	}
}

// TestRecordExternalSpill drives record jobs through the full
// out-of-core path — spill to run files, k-way safe-window merge back —
// with a deliberately odd merge block so the record alignment of the
// read-ahead fills is exercised, and checks the streamed batches are
// whole records that concatenate to the stable reference.
func TestRecordExternalSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	xs := recordJob(rng, 5000)
	want := sortedRecordsRef(xs)

	var streamed []int64
	sink := func(batch []int64) error {
		if len(batch)%2 != 0 {
			t.Fatalf("sink batch of %d cells splits a record", len(batch))
		}
		streamed = append(streamed, batch...)
		return nil
	}
	opts := ExternalOptions{
		RealOptions: RealOptions{Elem: ElemKV},
		SpillDir:    t.TempDir(),
		MergeBlock:  513, // odd: MergeSpilled must round it to whole records
		Sink:        sink,
	}
	stats, err := RunRealExternal(context.Background(), MLMSort, xs, 2, 1000, opts)
	if err != nil {
		t.Fatalf("RunRealExternal: %v", err)
	}
	if stats.Runs < 2 {
		t.Fatalf("runs = %d, want a real k-way merge", stats.Runs)
	}
	if stats.MergedElems != int64(len(want)) {
		t.Fatalf("merged %d cells, want %d", stats.MergedElems, len(want))
	}
	if !slices.Equal(streamed, want) {
		for i := range want {
			if streamed[i] != want[i] {
				t.Fatalf("cell %d: got %d want %d", i, streamed[i], want[i])
			}
		}
	}

	// Write-back shape (no sink): the in-place xs must match too.
	xs2 := recordJob(rng, 2048)
	want2 := sortedRecordsRef(xs2)
	opts.Sink = nil
	if _, err := RunRealExternal(context.Background(), MLMDDr, xs2, 2, 700, opts); err != nil {
		t.Fatalf("RunRealExternal write-back: %v", err)
	}
	if !slices.Equal(xs2, want2) {
		t.Fatal("write-back record sort diverges from stable reference")
	}
}

// TestMegachunkSorterBlockFloor: whatever width it is handed, the sorter
// cuts no block under tune.MinMegachunk cells. A 1Ki-cell megachunk and one
// a cell short of two blocks take the single-worker path at width 8 (the
// run table is never touched); 64Ki cells still fan out eight ways, keys
// and records, and the merged result is the stable sorted order.
func TestMegachunkSorterBlockFloor(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells int
		elem  ElemKind
		runs  int
	}{
		{"i64-1Ki", 1 << 10, ElemInt64, 0},
		{"i64-8Ki-1", 8<<10 - 1, ElemInt64, 0},
		{"rec-8Ki-2", 8<<10 - 2, ElemKV, 0},
		{"i64-64Ki", 64 << 10, ElemInt64, 8},
		{"rec-64Ki", 64 << 10, ElemKV, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.cells)))
			var mc, want []int64
			if tc.elem == ElemKV {
				mc = recordJob(rng, tc.cells/2)
				want = sortedRecordsRef(mc)
			} else {
				mc = make([]int64, tc.cells)
				for i := range mc {
					mc[i] = rng.Int63()
				}
				want = slices.Clone(mc)
				slices.Sort(want)
			}
			sorter := newMegachunkSorter(8, tc.elem)
			sorter.sort(mc, make([]int64, len(mc)))
			if len(sorter.runs) != tc.runs {
				t.Errorf("run table holds %d blocks, want %d", len(sorter.runs), tc.runs)
			}
			if !slices.Equal(mc, want) {
				t.Error("not the stable sorted order")
			}
		})
	}
}
