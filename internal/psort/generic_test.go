package psort

// Differential fuzz targets for the generic key kernels, seeded from the
// conformance generator library, plus the boundary tests and allocation
// regression tests the generic kernels are pinned by.

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"knlmlm/internal/workload"
)

// ---------------------------------------------------------------------
// Fuzz targets (differential vs the stdlib reference sorts)
// ---------------------------------------------------------------------

// float64sToBytes encodes the fuzz wire format: 8 LE bytes per value.
func float64sToBytes(xs []float64) []byte {
	out := make([]byte, 0, len(xs)*8)
	for _, f := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
	}
	return out
}

func kvsToBytes(rs []KV) []byte {
	out := make([]byte, 0, len(rs)*16)
	for _, r := range rs {
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Key))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Payload))
	}
	return out
}

// FuzzFloat64Sort checks SortFloat64sScratch against slices.SortFunc on
// the pinned total order, bit-for-bit — NaN payloads and zero signs
// included.
func FuzzFloat64Sort(f *testing.F) {
	for _, c := range float64Cases() {
		f.Add(float64sToBytes(c.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n > 1<<16 {
			n = 1 << 16
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		want := slices.Clone(xs)
		slices.SortFunc(want, cmpFloat64Total)
		SortFloat64sScratch(xs, make([]float64, len(xs)))
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("index %d: got %x want %x", i, math.Float64bits(xs[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// FuzzRecordSort checks SortRecordsScratch against slices.SortStableFunc
// by key: the full records — payloads included — must match, which is
// exactly the stability claim.
func FuzzRecordSort(f *testing.F) {
	for _, c := range kvCases() {
		f.Add(kvsToBytes(c.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		if n > 1<<15 {
			n = 1 << 15
		}
		rs := make([]KV, n)
		for i := range rs {
			rs[i].Key = int64(binary.LittleEndian.Uint64(data[i*16:]))
			rs[i].Payload = int64(binary.LittleEndian.Uint64(data[i*16+8:]))
		}
		want := slices.Clone(rs)
		slices.SortStableFunc(want, cmpKV)
		SortRecordsScratch(rs, make([]KV, len(rs)))
		if !slices.Equal(rs, want) {
			for i := range rs {
				if rs[i] != want[i] {
					t.Fatalf("index %d: got %v want %v", i, rs[i], want[i])
				}
			}
		}
	})
}

// ---------------------------------------------------------------------
// Gallop boundary tests
// ---------------------------------------------------------------------

// refLE and refLT are the linear definitions of the two gallops.
func refLE(run []int64, v int64) int {
	n := 0
	for _, x := range run {
		if x <= v {
			n++
		}
	}
	return n
}

func refLT(run []int64, v int64) int {
	n := 0
	for _, x := range run {
		if x < v {
			n++
		}
	}
	return n
}

// checkGallops runs both gallops over keys laid out as cells of width
// len(C) and compares them with the linear references, so every gallop
// table below covers both strides with one body.
func checkGallops[C cell](t *testing.T, keys []int64, v int64) {
	t.Helper()
	var c C
	run := make([]C, len(keys))
	for i, x := range keys {
		run[i][len(c)-1] = int64(i) // the payload cell; at width 1 the key overwrites it
		run[i][0] = x
	}
	if got, want := gallopLE(run, v), refLE(keys, v); got != want {
		t.Errorf("width %d: gallopLE(%v, %d) = %d, want %d", len(c), keys, v, got, want)
	}
	if got, want := gallopLT(run, v), refLT(keys, v); got != want {
		t.Errorf("width %d: gallopLT(%v, %d) = %d, want %d", len(c), keys, v, got, want)
	}
}

// TestGallopBoundaries pins gallopLE/gallopLT, at both cell widths, on
// the degenerate shapes the merge tests only hit by luck: empty runs,
// single elements, all-equal runs, and probe values outside the range.
func TestGallopBoundaries(t *testing.T) {
	allEqual := repeatInt64(7, 9)
	long := make([]int64, 100)
	for i := range long {
		long[i] = int64(2 * i) // evens: odd probes land between elements
	}
	cases := []struct {
		name string
		run  []int64
		v    int64
	}{
		{"empty", nil, 5},
		{"single-below", []int64{10}, 9},
		{"single-equal", []int64{10}, 10},
		{"single-above", []int64{10}, 11},
		{"all-equal-below", allEqual, 6},
		{"all-equal-at", allEqual, 7},
		{"all-equal-above", allEqual, 8},
		{"below-range", long, -1},
		{"at-first", long, 0},
		{"between", long, 33},
		{"at-last", long, 198},
		{"above-range", long, 199},
		{"min-int", long, math.MinInt64},
		{"max-int", long, math.MaxInt64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkGallops[[1]int64](t, c.run, c.v)
			checkGallops[[2]int64](t, c.run, c.v)
		})
	}
}

// TestGallopExhaustive cross-checks the galloping searches against the
// linear reference over every prefix length and probe position of a run
// with duplicates — the exponential-probe overshoot boundaries (1, 3, 7,
// 15, ...) all land inside this range.
func TestGallopExhaustive(t *testing.T) {
	base := []int64{0, 0, 1, 3, 3, 3, 4, 8, 8, 9, 12, 12, 12, 12, 15, 20, 20, 21}
	for n := 0; n <= len(base); n++ {
		for v := int64(-1); v <= 22; v++ {
			checkGallops[[1]int64](t, base[:n], v)
			checkGallops[[2]int64](t, base[:n], v)
		}
	}
}

// ---------------------------------------------------------------------
// Allocation regression tests
// ---------------------------------------------------------------------

// caseByName pulls one generator case out of the conformance library.
func caseByName[E any](t *testing.T, cases []genCase[E], name string) []E {
	t.Helper()
	for _, c := range cases {
		if c.name == name {
			return c.data
		}
	}
	t.Fatalf("no generator case named %q", name)
	return nil
}

// TestGenericKernelsZeroAlloc pins the steady-state allocation behaviour
// of the generic kernels at zero, matching the int64 pooled-path
// guarantees: with scratch provided, sorting and merging allocate
// nothing, so service hot paths can run them per job without GC traffic.
func TestGenericKernelsZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow at these sizes")
	}
	const n = 4096

	floats := caseByName(t, float64Cases(), "random-with-specials")[:n]
	fwork := make([]float64, n)
	fscratch := make([]float64, n)
	if a := testing.AllocsPerRun(10, func() {
		copy(fwork, floats)
		SortFloat64sScratch(fwork, fscratch)
	}); a != 0 {
		t.Errorf("SortFloat64sScratch allocates %v per run, want 0", a)
	}

	recs := caseByName(t, kvCases(), "random")[:n]
	rwork := make([]KV, n)
	rscratch := make([]KV, n)
	if a := testing.AllocsPerRun(10, func() {
		copy(rwork, recs)
		SortRecordsScratch(rwork, rscratch)
	}); a != 0 {
		t.Errorf("SortRecordsScratch allocates %v per run, want 0", a)
	}
	// Both scatters at both widths: the tiled one's stage array lives on
	// the stack.
	ints := caseByName(t, int64Cases(), "random-large")[:n]
	iwork := make([]int64, n)
	iscratch := make([]int64, n)
	for _, tiled := range []bool{false, true} {
		if a := testing.AllocsPerRun(10, func() {
			copy(rwork, recs)
			radixSort(kvCells(rwork), kvCells(rscratch), nil, tiled, tiled)
		}); a != 0 {
			t.Errorf("radixSort width 2 (tiled=%v) allocates %v per run, want 0", tiled, a)
		}
		if a := testing.AllocsPerRun(10, func() {
			copy(iwork, ints)
			radixSort(asCells[[1]int64](iwork), asCells[[1]int64](iscratch), nil, tiled, tiled)
		}); a != 0 {
			t.Errorf("radixSort width 1 (tiled=%v) allocates %v per run, want 0", tiled, a)
		}
	}

	// The recursing path at both widths: the finishing sweep radix-sorts
	// shared-prefix's long tied run out of the caller's scratch.
	for cells, src := range map[int][]int64{
		1: caseByName(t, int64Cases(), "shared-prefix"),
		2: Int64sFromKVs(caseByName(t, kvCases(), "shared-prefix")),
	} {
		work, scratch := make([]int64, len(src)), make([]int64, len(src))
		if a := testing.AllocsPerRun(10, func() {
			copy(work, src)
			SortBlock(work, scratch, nil, 1, cells)
		}); a != 0 {
			t.Errorf("SortBlock width %d on shared-prefix allocates %v per run, want 0", cells, a)
		}
	}

	// The public dispatch at the first size that tiles at both widths:
	// the 128 KiB stage must stay on the sorting goroutine's stack.
	tsrc := workload.Generate(workload.Random, max(radixTileMinLen, radixTileMinLenRec), 9)
	twork, tscratch := make([]int64, len(tsrc)), make([]int64, len(tsrc))
	for _, cells := range []int{1, 2} {
		if a := testing.AllocsPerRun(5, func() {
			copy(twork, tsrc)
			SortBlock(twork, tscratch, nil, 1, cells)
		}); a != 0 {
			t.Errorf("SortBlock width %d at a tiling size allocates %v per run, want 0", cells, a)
		}
	}

	// The record two-way merge (a two-run record round) into a
	// preallocated destination.
	a1 := slices.Clone(recs[:n/2])
	b1 := slices.Clone(recs[n/2:])
	slices.SortStableFunc(a1, cmpKV)
	slices.SortStableFunc(b1, cmpKV)
	dst := make([]int64, 2*n)
	two := [][]int64{Int64sFromKVs(a1), Int64sFromKVs(b1)}
	if a := testing.AllocsPerRun(10, func() {
		MergeRound(dst, two, 1, 2)
	}); a != 0 {
		t.Errorf("a two-run record MergeRound allocates %v per run, want 0", a)
	}

	// The loser tree reused via Reset — the shape of a steady-state merge
	// loop — at both widths.
	rruns, iruns := make([][]int64, 4), make([][]int64, 4)
	for i := range rruns {
		r := slices.Clone(recs[i*n/4 : (i+1)*n/4])
		slices.SortStableFunc(r, cmpKV)
		rruns[i] = Int64sFromKVs(r)
		iruns[i] = slices.Clone(ints[i*n/4 : (i+1)*n/4])
		slices.Sort(iruns[i])
	}
	if a := resetDrainAllocs[[2]int64](rruns); a != 0 {
		t.Errorf("width-2 loser tree Reset+MergeInto allocates %v per run, want 0", a)
	}
	if a := resetDrainAllocs[[1]int64](iruns); a != 0 {
		t.Errorf("width-1 loser tree Reset+MergeInto allocates %v per run, want 0", a)
	}

	// Every run exhausting at a different time: run i is i+1 times as
	// long, so the tree compacts and rebuilds four times on its way down
	// from five runs, out of the tables Reset left it. Pairs of equal
	// cells read as sorted keys and as sorted records alike.
	staggered := make([][]int64, 5)
	for i := range staggered {
		for j := 0; j < 40*(i+1); j++ {
			staggered[i] = append(staggered[i], int64(j), int64(j))
		}
	}
	if a, b := resetDrainAllocs[[1]int64](staggered), resetDrainAllocs[[2]int64](staggered); a != 0 || b != 0 {
		t.Errorf("loser tree Reset+MergeInto over staggered runs allocates %v (width 1) and %v (width 2) per run, want 0", a, b)
	}

	// A k-way MergeRound allocates the tree's four tables and nothing
	// else, at either width: a record round used to build a [][]KV view
	// of its runs before the tree saw them, and a key round put the tree
	// itself on the heap, five allocations each. iruns holds whole
	// records as well (even lengths), sorted under either reading once
	// both cells of each pair are equal.
	for _, r := range iruns {
		for j := range r {
			r[j] = r[j&^1]
		}
	}
	rdst := make([]int64, n)
	roundAllocs := func(cells int) float64 {
		return testing.AllocsPerRun(10, func() { MergeRound(rdst, iruns, 1, cells) })
	}
	if keys, records := roundAllocs(1), roundAllocs(2); records > keys || keys > 4 {
		t.Errorf("MergeRound allocates %v per record round and %v per key round of the same %d runs, want equal and at most 4", records, keys, len(iruns))
	}
}

// resetDrainAllocs reports the allocations of one Reset and batched
// drain on a tree that has already merged runs once.
func resetDrainAllocs[C cell](runs [][]int64) float64 {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	dst := asCells[C](make([]int64, total))
	var lt loserTree[C]
	lt.Reset(runs)
	lt.MergeInto(dst)
	return testing.AllocsPerRun(10, func() {
		lt.Reset(runs)
		lt.MergeInto(dst)
	})
}
