package psort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"knlmlm/internal/workload"
)

func checkSorted(t *testing.T, label string, got []int64, want []int64) {
	t.Helper()
	if !workload.IsSorted(got) {
		t.Fatalf("%s: output not sorted", label)
	}
	if workload.Fingerprint(got) != workload.Fingerprint(want) {
		t.Fatalf("%s: output is not a permutation of the input", label)
	}
}

func TestSerialAllOrders(t *testing.T) {
	for _, o := range workload.Orders() {
		for _, n := range []int{0, 1, 2, 3, 23, 24, 25, 1000, 4096} {
			in := workload.Generate(o, n, 42)
			orig := append([]int64(nil), in...)
			Serial(in)
			checkSorted(t, o.String(), in, orig)
		}
	}
}

func TestSerialQuickCheck(t *testing.T) {
	f := func(xs []int64) bool {
		orig := append([]int64(nil), xs...)
		Serial(xs)
		return workload.IsSorted(xs) && workload.Fingerprint(xs) == workload.Fingerprint(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSerialAdversarialPatterns(t *testing.T) {
	cases := map[string][]int64{
		"all-equal":        make([]int64, 1000),
		"two-values":       nil,
		"sawtooth":         nil,
		"single-swap":      nil,
		"descending-dups":  nil,
		"quicksort-killer": nil,
	}
	tv := make([]int64, 1000)
	for i := range tv {
		tv[i] = int64(i % 2)
	}
	cases["two-values"] = tv
	st := make([]int64, 1000)
	for i := range st {
		st[i] = int64(i % 17)
	}
	cases["sawtooth"] = st
	ss := make([]int64, 1000)
	for i := range ss {
		ss[i] = int64(i)
	}
	ss[100], ss[900] = ss[900], ss[100]
	cases["single-swap"] = ss
	dd := make([]int64, 1000)
	for i := range dd {
		dd[i] = int64((1000 - i) / 3)
	}
	cases["descending-dups"] = dd
	// Median-of-3 killer pattern.
	qk := make([]int64, 1024)
	for i := range qk {
		if i%2 == 0 {
			qk[i] = int64(i)
		} else {
			qk[i] = int64(i + 512)
		}
	}
	cases["quicksort-killer"] = qk

	for name, in := range cases {
		orig := append([]int64(nil), in...)
		Serial(in)
		checkSorted(t, name, in, orig)
	}
}

func TestHeapsortDirect(t *testing.T) {
	// Exercise the depth-limit fallback directly.
	xs := workload.Generate(workload.Random, 500, 9)
	orig := append([]int64(nil), xs...)
	heapsort(xs)
	checkSorted(t, "heapsort", xs, orig)
}

func TestInsertionDirect(t *testing.T) {
	xs := workload.Generate(workload.Random, 23, 11)
	orig := append([]int64(nil), xs...)
	insertion(asCells[[1]int64](xs))
	checkSorted(t, "insertion", xs, orig)
}

func TestScanRuns(t *testing.T) {
	if asc, desc := scanRuns([]int64{1, 2, 2, 3}); !asc || desc {
		t.Errorf("ascending: asc=%v desc=%v", asc, desc)
	}
	if asc, desc := scanRuns([]int64{3, 2, 1}); asc || !desc {
		t.Errorf("descending: asc=%v desc=%v", asc, desc)
	}
	if asc, desc := scanRuns([]int64{1, 3, 2}); asc || desc {
		t.Errorf("mixed: asc=%v desc=%v", asc, desc)
	}
	// Equal elements are ascending but not strictly descending.
	if asc, desc := scanRuns([]int64{5, 5, 5}); !asc || desc {
		t.Errorf("equal: asc=%v desc=%v", asc, desc)
	}
}

func TestMerge2(t *testing.T) {
	a := []int64{1, 3, 5}
	b := []int64{2, 3, 4, 6}
	dst := make([]int64, 7)
	Merge2(dst, a, b)
	want := []int64{1, 2, 3, 3, 4, 5, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
	// Empty sides.
	dst2 := make([]int64, 3)
	Merge2(dst2, nil, []int64{1, 2, 3})
	if dst2[0] != 1 || dst2[2] != 3 {
		t.Errorf("merge with empty a = %v", dst2)
	}
}

func TestMerge2LengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Merge2(make([]int64, 2), []int64{1}, []int64{2, 3})
}

func TestMerge2Property(t *testing.T) {
	f := func(a, b []int64) bool {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		dst := make([]int64, len(a)+len(b))
		Merge2(dst, a, b)
		all := append(append([]int64(nil), a...), b...)
		return workload.IsSorted(dst) && workload.Fingerprint(dst) == workload.Fingerprint(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func makeRuns(rng *rand.Rand, k, maxLen int) [][]int64 {
	runs := make([][]int64, k)
	for i := range runs {
		n := rng.Intn(maxLen + 1)
		r := make([]int64, n)
		for j := range r {
			r[j] = int64(rng.Intn(200) - 100)
		}
		sort.Slice(r, func(a, b int) bool { return r[a] < r[b] })
		runs[i] = r
	}
	return runs
}

func flatten(runs [][]int64) []int64 {
	var all []int64
	for _, r := range runs {
		all = append(all, r...)
	}
	return all
}

func TestLoserTreeBasic(t *testing.T) {
	runs := [][]int64{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}}
	var lt loserTree[[1]int64]
	lt.Reset(runs)
	var got []int64
	for !lt.Empty() {
		got = append(got, lt.Pop()[0])
	}
	for i := int64(1); i <= 9; i++ {
		if got[i-1] != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestLoserTreePopEmptyPanics(t *testing.T) {
	var lt loserTree[[2]int64]
	lt.Reset(nil)
	if !lt.Empty() {
		t.Fatal("tree over no runs should be empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty tree should panic")
		}
	}()
	lt.Pop()
}

func TestLoserTreeWithEmptyRuns(t *testing.T) {
	runs := [][]int64{{}, {5}, {}, {1, 9}, {}}
	dst := make([]int64, 3)
	popDrain[[1]int64](dst, runs)
	want := []int64{1, 5, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v", dst)
		}
	}
}

func TestMergeKRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(9)
		runs := makeRuns(rng, k, 50)
		all := flatten(runs)
		dst := make([]int64, len(all))
		MergeK(dst, runs...)
		checkSorted(t, "MergeK", dst, all)
	}
}

func TestMergeKZeroRuns(t *testing.T) {
	MergeK(nil) // must not panic
}

func TestMergeKMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	MergeK(make([]int64, 1), []int64{1, 2})
}

func TestSelectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		runs := makeRuns(rng, 1+rng.Intn(6), 40)
		total := len(flatten(runs))
		r := rng.Intn(total + 1)
		cuts := Select(runs, r)
		sum := 0
		var maxBefore, minAfter int64
		haveBefore, haveAfter := false, false
		for i, run := range runs {
			c := cuts[i]
			if c < 0 || c > len(run) {
				t.Fatalf("cut %d out of range", c)
			}
			sum += c
			if c > 0 && (!haveBefore || run[c-1] > maxBefore) {
				maxBefore = run[c-1]
				haveBefore = true
			}
			if c < len(run) && (!haveAfter || run[c] < minAfter) {
				minAfter = run[c]
				haveAfter = true
			}
		}
		if sum != r {
			t.Fatalf("cuts sum to %d, want %d", sum, r)
		}
		if haveBefore && haveAfter && maxBefore > minAfter {
			t.Fatalf("selection not order-consistent: %d > %d", maxBefore, minAfter)
		}
	}
}

func TestSelectRankOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank should panic")
		}
	}()
	Select([][]int64{{1, 2}}, 3)
}

func TestSelectExtremeValues(t *testing.T) {
	// Guard the value-domain binary search against int64 overflow: ranks
	// strictly inside the run force the search loop to actually iterate
	// over the full int64 span (a naive hi-lo midpoint loops forever).
	runs := [][]int64{{-9223372036854775808, 0}, {9223372036854775807, 9223372036854775807}}
	for r := 0; r <= 4; r++ {
		cuts := Select(runs, r)
		if cuts[0]+cuts[1] != r {
			t.Fatalf("rank %d: cuts = %v", r, cuts)
		}
	}
}

func TestParallelMergeKFullRangeValues(t *testing.T) {
	// Regression: uniformly random int64 runs span the whole value domain;
	// the multisequence selection must still terminate and merge.
	rng := rand.New(rand.NewSource(123))
	runs := make([][]int64, 5)
	for i := range runs {
		r := make([]int64, 2000)
		for j := range r {
			r[j] = int64(rng.Uint64())
		}
		sort.Slice(r, func(a, b int) bool { return r[a] < r[b] })
		runs[i] = r
	}
	all := flatten(runs)
	dst := make([]int64, len(all))
	ParallelMergeK(dst, runs, 4)
	checkSorted(t, "full-range merge", dst, all)
}

func TestParallelMergeKMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		runs := makeRuns(rng, 1+rng.Intn(8), 200)
		all := flatten(runs)
		for _, p := range []int{1, 2, 3, 7, 16} {
			dst := make([]int64, len(all))
			ParallelMergeK(dst, runs, p)
			checkSorted(t, "ParallelMergeK", dst, all)
		}
	}
}

func TestParallelMergeKEmptyTotal(t *testing.T) {
	ParallelMergeK(nil, [][]int64{{}, {}}, 4) // must not panic
}

func TestParallelMergeKBadWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("p=0 should panic")
		}
	}()
	ParallelMergeK(make([]int64, 1), [][]int64{{1}}, 0)
}

func TestParallelSortAllOrders(t *testing.T) {
	for _, o := range workload.Orders() {
		for _, p := range []int{1, 2, 4, 16} {
			in := workload.Generate(o, 10_000, 21)
			orig := append([]int64(nil), in...)
			Parallel(in, p)
			checkSorted(t, o.String(), in, orig)
		}
	}
}

func TestParallelSortQuickCheck(t *testing.T) {
	f := func(xs []int64, pRaw uint8) bool {
		p := 1 + int(pRaw%16)
		orig := append([]int64(nil), xs...)
		Parallel(xs, p)
		return workload.IsSorted(xs) && workload.Fingerprint(xs) == workload.Fingerprint(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParallelSortMoreWorkersThanElements(t *testing.T) {
	in := []int64{3, 1, 2}
	Parallel(in, 64)
	if !workload.IsSorted(in) {
		t.Errorf("got %v", in)
	}
}

func TestParallelSortBadWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("p=0 should panic")
		}
	}()
	Parallel([]int64{2, 1}, 0)
}
