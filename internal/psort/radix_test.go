package psort

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"knlmlm/internal/race"
	"knlmlm/internal/workload"
)

func diffAgainstSerial(t *testing.T, label string, in []int64) {
	t.Helper()
	want := append([]int64(nil), in...)
	Serial(want)

	got := append([]int64(nil), in...)
	RadixSortScratch(got, make([]int64, len(got)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: RadixSortScratch diverges from Serial at %d: %d != %d", label, i, got[i], want[i])
		}
	}

	got2 := append([]int64(nil), in...)
	scratch := make([]int64, len(in))
	SortAdaptive(got2, scratch)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("%s: SortAdaptive diverges from Serial at %d: %d != %d", label, i, got2[i], want[i])
		}
	}
}

func TestRadixMatchesSerialAllOrders(t *testing.T) {
	for _, o := range workload.Orders() {
		for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 4095, 4096, 100_000} {
			in := workload.Generate(o, n, 77)
			diffAgainstSerial(t, o.String(), in)
		}
	}
}

func TestRadixAdversarialPatterns(t *testing.T) {
	mk := func(n int, f func(i int) int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	cases := map[string][]int64{
		"all-equal":      mk(5000, func(int) int64 { return 42 }),
		"all-equal-neg":  mk(5000, func(int) int64 { return -42 }),
		"sawtooth":       mk(5000, func(i int) int64 { return int64(i % 17) }),
		"neg-sawtooth":   mk(5000, func(i int) int64 { return int64(i%9) - 4 }),
		"sign-boundary":  mk(5000, func(i int) int64 { return int64(i%2)*2 - 1 }), // {-1, 1}
		"extremes":       {math.MaxInt64, math.MinInt64, 0, -1, 1, math.MaxInt64, math.MinInt64},
		"high-byte-only": mk(5000, func(i int) int64 { return int64(i%5) << 56 }),
		"low-byte-only":  mk(5000, func(i int) int64 { return int64(i % 256) }),
		"alternating-ext": mk(4096, func(i int) int64 {
			if i%2 == 0 {
				return math.MinInt64 + int64(i)
			}
			return math.MaxInt64 - int64(i)
		}),
	}
	for name, in := range cases {
		diffAgainstSerial(t, name, in)
	}
}

func TestRadixQuickCheck(t *testing.T) {
	f := func(xs []int64) bool {
		want := append([]int64(nil), xs...)
		Serial(want)
		got := append([]int64(nil), xs...)
		RadixSortScratch(got, make([]int64, len(got)))
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRadixScratchTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short scratch should panic")
		}
	}()
	RadixSortScratch([]int64{3, 1, 2}, make([]int64, 2))
}

func TestRadixIsAllocationFreeWithScratch(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	xs := workload.Generate(workload.Random, 50_000, 3)
	scratch := make([]int64, len(xs))
	allocs := testing.AllocsPerRun(5, func() {
		RadixSortScratch(xs, scratch)
	})
	if allocs != 0 {
		t.Errorf("RadixSortScratch allocates %.1f times per run", allocs)
	}
	allocs = testing.AllocsPerRun(5, func() {
		SortAdaptive(xs, scratch)
	})
	if allocs != 0 {
		t.Errorf("SortAdaptive allocates %.1f times per run", allocs)
	}
}

func TestSortAdaptiveDispatch(t *testing.T) {
	// Sorted input: untouched (run detection short-circuits radix).
	asc := []int64{1, 2, 3, 4, 5}
	SortAdaptive(asc, nil)
	if !workload.IsSorted(asc) {
		t.Error("ascending input broken")
	}
	// Strictly descending: reversed in one pass.
	desc := make([]int64, 10_000)
	for i := range desc {
		desc[i] = int64(len(desc) - i)
	}
	SortAdaptive(desc, make([]int64, len(desc)))
	if !workload.IsSorted(desc) {
		t.Error("descending input not reversed")
	}
	// No scratch: introsort fallback must still sort large inputs.
	big := workload.Generate(workload.Random, 3*radixMinLen, 5)
	orig := append([]int64(nil), big...)
	SortAdaptive(big, nil)
	checkSorted(t, "no-scratch fallback", big, orig)
	// Short scratch: also falls back rather than panicking.
	big2 := workload.Generate(workload.Random, 3*radixMinLen, 6)
	orig2 := append([]int64(nil), big2...)
	SortAdaptive(big2, make([]int64, 10))
	checkSorted(t, "short-scratch fallback", big2, orig2)
}

// TestPublicEntriesAcrossTileThreshold drives the public sorts over the
// three sizes where their dispatch changes scatter: the last buffer that
// takes the plain one, the first that tiles, and one element more. The
// conformance matrix forces both scatters at small sizes; this is the
// dispatch itself, on inputs long enough to reach it.
func TestPublicEntriesAcrossTileThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range []int{-1, 0, 1} {
		n := radixTileMinLen + d
		if got, want := tiles[[1]int64](n), d >= 0; got != want {
			t.Errorf("tiles(%d keys) = %v, want %v", n, got, want)
		}
		keys := make([]int64, n)
		floats := make([]float64, n)
		for i := range keys {
			keys[i] = int64(rng.Uint64())
			floats[i] = math.Float64frombits(rng.Uint64()) // NaNs of both signs among them
		}
		wantKeys := slices.Clone(keys)
		slices.Sort(wantKeys)
		SortAdaptive(keys, make([]int64, n))
		if !slices.Equal(keys, wantKeys) {
			t.Errorf("SortAdaptive on %d keys diverges from slices.Sort", n)
		}
		wantFloats := slices.Clone(floats)
		slices.SortFunc(wantFloats, cmpFloat64Total)
		SortFloat64sScratch(floats, make([]float64, n))
		if !slices.Equal(f64AsI64(floats), f64AsI64(wantFloats)) {
			t.Errorf("SortFloat64sScratch on %d keys diverges from the total order", n)
		}

		// Records have their own threshold, in cells too. Every other key is
		// drawn from 1000 values, so stability shows in the index payloads.
		n = radixTileMinLenRec/2 + d
		if got, want := tiles[[2]int64](n), d >= 0; got != want {
			t.Errorf("tiles(%d records) = %v, want %v", n, got, want)
		}
		recs := make([]KV, n)
		for i := range recs {
			recs[i] = KV{Key: int64(rng.Uint64()), Payload: int64(i)}
			if i%2 == 0 {
				recs[i].Key = rng.Int63n(1000) << 40
			}
		}
		wantRecs := slices.Clone(recs)
		slices.SortStableFunc(wantRecs, cmpKV)
		SortRecordsScratch(recs, make([]KV, n))
		if !slices.Equal(recs, wantRecs) {
			t.Errorf("SortRecordsScratch on %d records diverges from the stable reference", n)
		}
	}
}

// planOf is the digit plan radixSort makes for keys, from their whole
// histograms, with the digits its pass loop would then scatter: those at
// or above the plan's lowest that are not constant.
func planOf(keys []int64) (low int, scattered []int) {
	var counts [radixDigits][256]int
	radixCount(asCells[[1]int64](keys), &counts, 0, radixDigits)
	low = radixPlan(&counts, len(keys), 1)
	// The kernel decides on the top half alone when that reaches the
	// target; it must be the same decision.
	fromTop := 0
	if low >= radixDigits/2 {
		fromTop = low
	}
	if radixPlan(&counts, len(keys), radixDigits/2) != fromTop {
		panic("the plan from the top four digits disagrees with the plan from all eight")
	}
	for d := low; d < radixDigits; d++ {
		if shift, bias := digitPlan(d); counts[d][digit(keys[0], shift, bias)] != len(keys) {
			scattered = append(scattered, d)
		}
	}
	return low, scattered
}

// TestRadixPlan pins the digit plan, a pure function of the histograms
// and n, on the input classes it has to tell apart.
func TestRadixPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gen := func(n int, f func() int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	uniform := func() int64 { return int64(rng.Uint64()) }
	var sixteen [16]int64 // the bench's few-unique order
	for i := range sixteen {
		sixteen[i] = uniform()
	}
	var sixteenVary []int
	for d := 0; d < radixDigits; d++ {
		if slices.ContainsFunc(sixteen[1:], func(v int64) bool { return uint8(v>>(8*d)) != uint8(sixteen[0]>>(8*d)) }) {
			sixteenVary = append(sixteenVary, d)
		}
	}
	i := 0
	cases := []struct {
		name string
		keys []int64
		// Plan low scatters exactly these digits; or, when digits is nil,
		// at most maxDigits of them and none below minLow.
		low               int
		digits            []int
		maxDigits, minLow int
	}{
		// A uniform digit's largest bucket sits about three standard
		// deviations over n/256, so it is credited 7.8 bits at 96Ki keys
		// and 7.9 from 256Ki up. Three of them make 23.4 against a target
		// of 17+4 at 96Ki, 23.6 against 18+4 at 256Ki and 23.7 against
		// 19+4 at 512Ki: digits 5-7. They cannot make the 20+4 of 1Mi
		// (under 8 each) nor the 23+4 of 8Mi: digits 4-7.
		{name: "uniform-96Ki", keys: gen(96<<10, uniform), maxDigits: 4, minLow: 3},
		{name: "uniform-256Ki", keys: gen(256<<10, uniform), maxDigits: 3, minLow: 5},
		{name: "uniform-512Ki", keys: gen(512<<10, uniform), maxDigits: 3, minLow: 5},
		{name: "uniform-1Mi", keys: gen(1<<20, uniform), maxDigits: 4, minLow: 3},
		{name: "uniform-8Mi", keys: gen(8<<20, uniform), maxDigits: 5, minLow: 3},
		// Digits 3-7 are constant (0 bits) and the low three cannot make 21.
		{name: "below-2^20", keys: gen(96<<10, func() int64 { return rng.Int63n(1 << 20) }), digits: []int{0, 1, 2}},
		{name: "sawtooth-17", keys: gen(96<<10, func() int64 { i++; return int64(i % 17) }), digits: []int{0}},
		// Seed 17's sixteen values take 16 distinct bytes in digits 7, 6, 5
		// and 2 (largest bucket n/16 and its noise: just under 4 bits) and
		// 15 or 14 in digits 4, 3, 1 and 0, where two values share a byte
		// (largest bucket n/8: just under 3). Walking down, the sum reads
		// 4, 8, 12, 15, 18, 22, 25, 28 less a few hundredths a digit:
		// 17+4 is passed at digit 2 and 20+4 at digit 1. Keys that agree in
		// six bytes are one value repeated, so the sweep has nothing to sort.
		{name: "sixteen-values-96Ki", keys: gen(96<<10, func() int64 { return sixteen[rng.Intn(16)] }), low: 2, digits: sixteenVary[2:]},
		{name: "sixteen-values-1Mi", keys: gen(1<<20, func() int64 { return sixteen[rng.Intn(16)] }), low: 1, digits: sixteenVary[1:]},
		// log2 3 = 1.58 bits for each of digits 5-7, nothing for 3 and 4,
		// 7.8 for each of the low three: 4.7, 12.5, 20.3 and only digit 0
		// passes 17+4.
		{name: "three-valued-high-digits", keys: gen(96<<10, func() int64 {
			return int64(rng.Intn(3))<<56 | int64(rng.Intn(3))<<48 | int64(rng.Intn(3))<<40 | rng.Int63n(1<<24)
		}), digits: []int{0, 1, 2, 5, 6, 7}},
		{name: "all-equal", keys: gen(96<<10, func() int64 { return -77 }), digits: []int{}},
	}
	for _, c := range cases {
		if testing.Short() && len(c.keys) > 1<<20 {
			continue
		}
		low, scattered := planOf(c.keys)
		switch {
		case c.digits != nil:
			if low != c.low || !slices.Equal(scattered, c.digits) {
				t.Errorf("%s: plan %d scatters %v, want plan %d scattering %v", c.name, low, scattered, c.low, c.digits)
			}
		case len(scattered) > c.maxDigits || low < c.minLow:
			t.Errorf("%s: plan %d scatters %v, want at most %d digits and none below %d", c.name, low, scattered, c.maxDigits, c.minLow)
		}
	}
}

// TestRadixPlanOnDivertCases holds the conformance library's diverting
// shapes to what their names say: the plan stops above digit 0 and the
// finishing sweep meets runs of the stated lengths.
func TestRadixPlanOnDivertCases(t *testing.T) {
	// Lengths of the tied runs that hold more than one distinct key, the
	// stray pairs and triples of random keys aside.
	wantRuns := map[string][]int{
		"byte-replicated": {},
		"two-cluster":     {},
		"run-at-limit":    {radixInsertionMax, radixInsertionMax + 1},
	}
	for _, c := range divertCases() {
		low, _ := planOf(c.data)
		if low == 0 {
			t.Errorf("%s: the plan scatters every digit, so nothing is left to finish", c.name)
			continue
		}
		lengths := []int{}
		for _, run := range tiedRuns(c.data, low) {
			if len(run) > 3 && run[0] != run[len(run)-1] {
				lengths = append(lengths, len(run))
			}
		}
		slices.Sort(lengths)
		lengths = slices.Compact(lengths)
		if c.name == "shared-prefix" {
			if len(lengths) != 1 || lengths[0] <= radixInsertionMax {
				t.Errorf("shared-prefix: tied runs of lengths %v, want one past the insertion limit %d", lengths, radixInsertionMax)
			}
		} else if want, ok := wantRuns[c.name]; !ok || !slices.Equal(lengths, want) {
			t.Errorf("%s: tied runs of lengths %v, want %v", c.name, lengths, want)
		}
	}
}

// tiedRuns sorts keys and splits them where neighbours differ at or
// above digit low: the runs radixSort's finishing sweep is left with
// after scattering digits low..7.
func tiedRuns(keys []int64, low int) [][]int64 {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	var runs [][]int64
	start := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || uint64(sorted[i]^sorted[i-1])>>(8*low) != 0 {
			runs = append(runs, sorted[start:i])
			start = i
		}
	}
	return runs
}

// planDepth is how many levels of radixSort the keys take: one, plus the
// deepest level under any run the finishing sweep would sort again.
func planDepth(keys []int64) int {
	low, _ := planOf(keys)
	depth := 1
	if low == 0 {
		return depth
	}
	for _, run := range tiedRuns(keys, low) {
		if len(run) > radixInsertionMax && run[0] != run[len(run)-1] {
			depth = max(depth, 1+planDepth(run))
		}
	}
	return depth
}

// TestRadixPlanDepthBounded runs the plan over inputs built to fool a
// per-digit estimate: digits that each look uniform and jointly carry
// far fewer bits than their sum. The plan diverts early on them and the
// finishing sweep pays with another level, which the construction bounds
// at four (every level takes at least two more digits).
func TestRadixPlanDepthBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rep := func(b uint64, digits ...int) (u uint64) {
		for _, d := range digits {
			u |= b << (8 * d)
		}
		return u
	}
	byteOf := func() uint64 { return uint64(rng.Intn(256)) }
	const n = 96 << 10
	inputs := map[string]func() int64{
		"byte-replicated":       func() int64 { return int64(rep(byteOf(), 0, 1, 2, 3, 4, 5, 6, 7)) },
		"replicated-digits-5-7": func() int64 { return int64(rep(byteOf(), 5, 6, 7) | uint64(rng.Int63n(1<<40))) },
		"replicated-pairs": func() int64 {
			return int64(rep(byteOf(), 6, 7) | rep(byteOf(), 4, 5) | rep(byteOf(), 2, 3) | rep(byteOf(), 0, 1))
		},
		"replicated-5-7-and-2-4": func() int64 {
			return int64(rep(byteOf(), 5, 6, 7) | rep(byteOf(), 2, 3, 4) | uint64(rng.Intn(1<<16)))
		},
	}
	for name, f := range inputs {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = f()
		}
		if d := planDepth(keys); d > 4 {
			t.Errorf("%s: %d levels of radixSort, want at most 4", name, d)
		}
		diffAgainstSerial(t, name, keys)
	}
}

func FuzzRadixMatchesSerial(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 255, 0, 128, 7})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	for _, c := range divertCases() {
		seed := make([]byte, 0, 8*len(c.data))
		for _, k := range c.data {
			seed = binary.LittleEndian.AppendUint64(seed, uint64(k))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := bytesToInt64s(data)
		want := append([]int64(nil), xs...)
		Serial(want)
		got := append([]int64(nil), xs...)
		RadixSortScratch(got, make([]int64, len(got)))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("radix diverges from Serial at %d", i)
			}
		}
	})
}

// bytesToInt64s reinterprets fuzz bytes as little-endian int64 keys.
func bytesToInt64s(data []byte) []int64 {
	xs := make([]int64, 0, len(data)/8)
	for len(data) >= 8 {
		var u uint64
		for i := 0; i < 8; i++ {
			u |= uint64(data[i]) << (8 * i)
		}
		xs = append(xs, int64(u))
		data = data[8:]
	}
	return xs
}

func TestRadixLargeRandomAgainstSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	xs := make([]int64, 200_000)
	for i := range xs {
		xs[i] = int64(rng.Uint64())
	}
	diffAgainstSerial(t, "200k full-range", xs)
}
