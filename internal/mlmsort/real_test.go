package mlmsort

import (
	"testing"
	"testing/quick"

	"knlmlm/internal/workload"
)

func allVariants() []Algorithm {
	return []Algorithm{GNUFlat, GNUCache, MLMDDr, MLMSort, MLMImplicit, BasicChunked}
}

func TestRunRealSortsAllVariantsAllOrders(t *testing.T) {
	for _, a := range allVariants() {
		for _, o := range workload.Orders() {
			xs := workload.Generate(o, 50_000, 7)
			orig := append([]int64(nil), xs...)
			if err := RunReal(a, xs, 8, 0); err != nil {
				t.Fatalf("%v/%v: %v", a, o, err)
			}
			if !workload.IsSorted(xs) {
				t.Errorf("%v/%v: not sorted", a, o)
			}
			if workload.Fingerprint(xs) != workload.Fingerprint(orig) {
				t.Errorf("%v/%v: not a permutation", a, o)
			}
		}
	}
}

func TestRunRealEdgeSizes(t *testing.T) {
	for _, a := range allVariants() {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9} {
			xs := workload.Generate(workload.Random, n, 3)
			orig := append([]int64(nil), xs...)
			if err := RunReal(a, xs, 4, 0); err != nil {
				t.Fatalf("%v n=%d: %v", a, n, err)
			}
			if !workload.IsSorted(xs) || workload.Fingerprint(xs) != workload.Fingerprint(orig) {
				t.Errorf("%v n=%d: bad output %v", a, n, xs)
			}
		}
	}
}

func TestRunRealMegachunkSizes(t *testing.T) {
	// Megachunk sizes that divide unevenly, equal N, exceed N.
	for _, mc := range []int{1, 100, 999, 10_000, 10_001, 50_000} {
		xs := workload.Generate(workload.Random, 10_000, 11)
		orig := append([]int64(nil), xs...)
		if err := RunReal(MLMSort, xs, 4, mc); err != nil {
			t.Fatalf("mc=%d: %v", mc, err)
		}
		if !workload.IsSorted(xs) || workload.Fingerprint(xs) != workload.Fingerprint(orig) {
			t.Errorf("mc=%d: bad output", mc)
		}
	}
}

func TestRunRealRejectsBadThreads(t *testing.T) {
	if err := RunReal(GNUFlat, []int64{2, 1}, 0, 0); err == nil {
		t.Error("threads=0 should error")
	}
	if err := RunReal(Algorithm(42), []int64{2, 1}, 1, 0); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestRunRealQuickCheck(t *testing.T) {
	for _, a := range []Algorithm{MLMSort, MLMImplicit, BasicChunked} {
		a := a
		f := func(xs []int64, mcRaw uint8) bool {
			orig := append([]int64(nil), xs...)
			mc := int(mcRaw) // 0 selects the default path
			if err := RunReal(a, xs, 3, mc); err != nil {
				return false
			}
			return workload.IsSorted(xs) && workload.Fingerprint(xs) == workload.Fingerprint(orig)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", a, err)
		}
	}
}

// All variants must agree element-for-element (total order on int64 keys
// makes the sorted output unique).
func TestRunRealVariantsAgree(t *testing.T) {
	ref := workload.Generate(workload.Random, 30_000, 5)
	want := append([]int64(nil), ref...)
	if err := RunReal(GNUFlat, want, 4, 0); err != nil {
		t.Fatal(err)
	}
	for _, a := range allVariants()[1:] {
		xs := append([]int64(nil), ref...)
		if err := RunReal(a, xs, 4, 0); err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("%v differs from GNU at %d: %d vs %d", a, i, xs[i], want[i])
			}
		}
	}
}

func TestHybridRealExecution(t *testing.T) {
	xs := workload.Generate(workload.Random, 20_000, 13)
	orig := append([]int64(nil), xs...)
	if err := RunReal(MLMHybrid, xs, 4, 0); err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) || workload.Fingerprint(xs) != workload.Fingerprint(orig) {
		t.Error("hybrid real run incorrect")
	}
}

func TestPreferredRealExecution(t *testing.T) {
	xs := workload.Generate(workload.Random, 20_000, 17)
	orig := append([]int64(nil), xs...)
	if err := RunReal(GNUPreferred, xs, 4, 0); err != nil {
		t.Fatal(err)
	}
	if !workload.IsSorted(xs) || workload.Fingerprint(xs) != workload.Fingerprint(orig) {
		t.Error("preferred real run incorrect")
	}
}
