package main

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"knlmlm/internal/wire"
)

func bitsOf(f float64) int64 { return int64(math.Float64bits(f)) }

func inputOf(kind wire.Kind, cells []int64) *input {
	in := &input{kind: kind, cells: len(cells)}
	in.sum, in.xor = fingerprint(kind, cells)
	return in
}

func TestVerifyInt64(t *testing.T) {
	in := inputOf(wire.KindInt64, []int64{5, -3, 9, -3, 0})
	if err := verify(in, []int64{-3, -3, 0, 5, 9}); err != nil {
		t.Errorf("correct result rejected: %v", err)
	}
	if err := verify(in, []int64{-3, 0, -3, 5, 9}); !errors.Is(err, errNotSorted) {
		t.Errorf("unsorted result: got %v, want errNotSorted", err)
	}
	if err := verify(in, []int64{-3, -3, 0, 5, 10}); !errors.Is(err, errNotPermuted) {
		t.Errorf("altered key: got %v, want errNotPermuted", err)
	}
	// Sorted, right count, but one key duplicated over another.
	if err := verify(in, []int64{-3, -3, 0, 5, 5}); !errors.Is(err, errNotPermuted) {
		t.Errorf("duplicated key: got %v, want errNotPermuted", err)
	}
	if err := verify(in, []int64{-3, -3, 0, 5}); !errors.Is(err, errWrongCount) {
		t.Errorf("short result: got %v, want errWrongCount", err)
	}
}

func TestVerifyFloat64TotalOrder(t *testing.T) {
	negNaN, posNaN := math.Copysign(math.NaN(), -1), math.NaN()
	total := []float64{negNaN, math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 2.5, math.Inf(1), posNaN}
	sorted := make([]int64, len(total))
	for i, f := range total {
		sorted[i] = bitsOf(f)
	}
	shuffled := append([]int64(nil), sorted...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	in := inputOf(wire.KindFloat64, shuffled)
	if err := verify(in, sorted); err != nil {
		t.Errorf("floats in total order rejected: %v", err)
	}
	// +0 before -0 differs only in the sign bit; the total order sees it.
	swapped := append([]int64(nil), sorted...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if err := verify(in, swapped); !errors.Is(err, errNotSorted) {
		t.Errorf("+0 before -0: got %v, want errNotSorted", err)
	}
	// A positive NaN sorted to the front, as a plain < comparison would leave it.
	front := append([]int64{bitsOf(posNaN)}, sorted[:len(sorted)-1]...)
	if err := verify(in, front); !errors.Is(err, errNotSorted) {
		t.Errorf("+NaN first: got %v, want errNotSorted", err)
	}
	// Raw int64 order of the bit patterns is not the float order.
	if err := verify(inputOf(wire.KindFloat64, []int64{bitsOf(-1), bitsOf(-2)}), []int64{bitsOf(-1), bitsOf(-2)}); !errors.Is(err, errNotSorted) {
		t.Errorf("-1 before -2: got %v, want errNotSorted", err)
	}
}

func TestSortableFloatBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		a, b := int64(rng.Uint64()), int64(rng.Uint64())
		if got := sortableFromF64Bits(f64BitsFromSortable(a)); got != a {
			t.Fatalf("round trip of %#x gave %#x", a, got)
		}
		fa, fb := math.Float64frombits(uint64(f64BitsFromSortable(a))), math.Float64frombits(uint64(f64BitsFromSortable(b)))
		if fa < fb && a >= b {
			t.Fatalf("%v < %v but their sortable keys are %d >= %d", fa, fb, a, b)
		}
	}
}

func TestVerifyRecordsCarryPayloads(t *testing.T) {
	// Records (key, payload): 3->30, 1->10, 2->20.
	in := inputOf(wire.KindRecord, []int64{3, 30, 1, 10, 2, 20})
	in.cells = 6
	if err := verify(in, []int64{1, 10, 2, 20, 3, 30}); err != nil {
		t.Errorf("correct records rejected: %v", err)
	}
	// Keys in order, but two payloads travelled with the wrong key. The
	// plain sum and xor of the cells are unchanged; the mixed one is not.
	if err := verify(in, []int64{1, 20, 2, 10, 3, 30}); !errors.Is(err, errNotPermuted) {
		t.Errorf("swapped payloads: got %v, want errNotPermuted", err)
	}
	if err := verify(in, []int64{2, 20, 1, 10, 3, 30}); !errors.Is(err, errNotSorted) {
		t.Errorf("keys out of order: got %v, want errNotSorted", err)
	}
	// Payload order among equal keys is free.
	eq := inputOf(wire.KindRecord, []int64{4, 1, 4, 2})
	if err := verify(eq, []int64{4, 2, 4, 1}); err != nil {
		t.Errorf("equal keys in either order rejected: %v", err)
	}
}

func TestGenKeysOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	asc := genKeys(rng, 5000, orderSorted)
	desc := genKeys(rng, 5000, orderReverse)
	for i := 1; i < 5000; i++ {
		if asc[i] <= asc[i-1] {
			t.Fatalf("sorted order not strictly ascending at %d", i)
		}
		if desc[i] >= desc[i-1] {
			t.Fatalf("reverse order not strictly descending at %d", i)
		}
	}
	distinct := map[int64]bool{}
	for _, k := range genKeys(rng, 5000, orderFewUnique) {
		distinct[k] = true
	}
	if len(distinct) < 2 || len(distinct) > 16 {
		t.Errorf("few-unique drew %d distinct keys, want 2..16", len(distinct))
	}
	// Random float jobs always carry the awkward values.
	cells := genCells(rng, wire.KindFloat64, orderRandom, 64)
	var nans, negZero int
	for _, c := range cells {
		f := math.Float64frombits(uint64(c))
		if math.IsNaN(f) {
			nans++
		}
		if f == 0 && math.Signbit(f) {
			negZero++
		}
	}
	if nans < 2 || negZero < 1 {
		t.Errorf("random floats hold %d NaNs and %d negative zeros, want both signs of NaN and a -0", nans, negZero)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	a := mixedInputs(rand.New(rand.NewSource(9)))
	b := mixedInputs(rand.New(rand.NewSource(9)))
	c := mixedInputs(rand.New(rand.NewSource(10)))
	if len(a) != mixedDeck*mixedOrders {
		t.Fatalf("stream of %d, want %d decks of %d", len(a), mixedOrders, mixedDeck)
	}
	same := true
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].sum != b[i].sum {
			t.Fatalf("seed 9 drew two different job %d", i)
		}
		same = same && bytes.Equal(a[i].body, c[i].body)
	}
	if same {
		t.Error("seeds 9 and 10 drew the same deck")
	}
}

// The mix must be the same in every deck, whatever the seed: p50 has to
// fall among the 256Ki jobs and p90 among the large ones on every run.
func TestMixedDeckComposition(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		stream := mixedInputs(rand.New(rand.NewSource(seed)))
		size := map[int]int{}
		kinds := map[wire.Kind]int{}
		orders := map[order]int{}
		var jsons, deadlines int
		for _, in := range stream[:mixedDeck] {
			size[in.cells]++
			kinds[in.kind]++
			orders[in.ord]++
			if in.json {
				jsons++
				if in.kind != wire.KindInt64 || in.cells > 64*ki {
					t.Errorf("JSON job %v: JSON carries only int64 up to 64Ki", in)
				}
				if !strings.HasPrefix(string(in.body[:20]), `{"wait":true,"keys":`) {
					t.Errorf("JSON body starts %q", in.body[:20])
				}
			}
			if in.deadline {
				deadlines++
			}
			if in.cells >= mixedUpper && in.ord != orderRandom {
				t.Errorf("job %v is pre-ordered: it would rank among the quick jobs and move both percentiles", in)
			}
			if in.cells == mixedUpper && in.kind == wire.KindRecord {
				t.Errorf("job %v holds half the keys of its class: p50 would straddle two speeds", in)
			}
		}
		if size[ki] != 12 || size[mixedMedium] != 4 || size[mixedUpper] != 22 || size[mixedLarge] != 10 {
			t.Errorf("seed %d: sizes %v, want 12/4/22/10", seed, size)
		}
		if kinds[wire.KindInt64] != 21 || kinds[wire.KindFloat64] != 20 || kinds[wire.KindRecord] != 7 {
			t.Errorf("seed %d: key types %v, want 21/20/7", seed, kinds)
		}
		if len(orders) != 4 {
			t.Errorf("seed %d: orders %v, want all four", seed, orders)
		}
		if deadlines != 12 || jsons != 3 {
			t.Errorf("seed %d: %d deadlines and %d JSON jobs, want 12 and 3", seed, deadlines, jsons)
		}
		// Every later deck is the first one in another order.
		first := map[*input]bool{}
		for _, in := range stream[:mixedDeck] {
			first[in] = true
		}
		reordered := 0
		for d := 1; d < mixedOrders; d++ {
			seen := map[*input]bool{}
			for i, in := range stream[d*mixedDeck : (d+1)*mixedDeck] {
				if !first[in] || seen[in] {
					t.Fatalf("seed %d: deck %d is not a permutation of the first", seed, d)
				}
				seen[in] = true
				if in != stream[i] {
					reordered++
				}
			}
		}
		if reordered == 0 {
			t.Errorf("seed %d: every deck is in the same order", seed)
		}
	}
}

func TestReadJSONInts(t *testing.T) {
	read := func(s string, n int) ([]int64, error) {
		dst := make([]int64, n)
		got, err := readJSONInts(bufio.NewReader(strings.NewReader(s)), dst)
		return dst[:got], err
	}
	got, err := read("[1,-2, 30,-9223372036854775808,9223372036854775807]\n", 5)
	want := []int64{1, -2, 30, math.MinInt64, math.MaxInt64}
	if err != nil || len(got) != len(want) {
		t.Fatalf("got %v, %v", got, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("element %d = %d, want %d", i, got[i], want[i])
		}
	}
	if _, err := read("[1,2,3", 3); err == nil {
		t.Error("truncated array accepted")
	}
	if _, err := read("[1,2,3]", 2); !errors.Is(err, errWrongCount) {
		t.Errorf("overlong array: got %v, want errWrongCount", err)
	}
	if _, err := read(`{"error":"x"}`, 2); err == nil {
		t.Error("a JSON object accepted as a result array")
	}
	if got, err := read("[]", 0); err != nil || len(got) != 0 {
		t.Errorf("empty array: %v, %v", got, err)
	}
}
