package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"knlmlm/internal/mlmsort"
	"knlmlm/internal/psort"
	"knlmlm/internal/wire"
)

// f64TestValues is an adversarial float64 palette: both NaN sign bits,
// both infinities, both zeros, denormals, and ordinary magnitudes.
var f64TestValues = []uint64{
	math.Float64bits(math.NaN()),                  // quiet NaN, sign 0 (sorts last)
	math.Float64bits(math.NaN()) | 1<<63,          // NaN, sign 1 (sorts first)
	math.Float64bits(math.Inf(1)),                 //
	math.Float64bits(math.Inf(-1)),                //
	0x0000000000000000,                            // +0.0
	0x8000000000000000,                            // -0.0
	0x0000000000000001,                            // smallest denormal
	0x8000000000000001,                            // smallest negative denormal
	math.Float64bits(1.5), math.Float64bits(-1.5), //
	math.Float64bits(1e300), math.Float64bits(-2.5), //
}

// f64Job builds n raw IEEE-754 bit cells drawn from the palette plus
// random finite values.
func f64Job(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = int64(f64TestValues[rng.Intn(len(f64TestValues))])
		} else {
			out[i] = int64(math.Float64bits(rng.NormFloat64() * 1e3))
		}
	}
	return out
}

// f64TotalLE is an independent statement of the required total order
// over raw bits: flip all bits of negatives, flip only the sign bit of
// non-negatives, compare as uint64. NaN(sign=1) < -Inf < ... < +Inf <
// NaN(sign=0).
func f64TotalLE(a, b int64) bool {
	flip := func(v int64) uint64 {
		u := uint64(v)
		if u>>63 == 1 {
			return ^u
		}
		return u | 1<<63
	}
	return flip(a) <= flip(b)
}

func checkF64Sorted(t *testing.T, got, input []int64) {
	t.Helper()
	if len(got) != len(input) {
		t.Fatalf("got %d cells, want %d", len(got), len(input))
	}
	for i := 1; i < len(got); i++ {
		if !f64TotalLE(got[i-1], got[i]) {
			t.Fatalf("cell %d: %#x then %#x violates the float64 total order", i, uint64(got[i-1]), uint64(got[i]))
		}
	}
	// Bit-exact multiset preservation: the service must hand back the
	// same bit patterns it was given (NaN payloads included), reordered.
	want := append([]int64(nil), input...)
	rearranged := append([]int64(nil), got...)
	sort.Slice(want, func(i, j int) bool { return uint64(want[i]) < uint64(want[j]) })
	sort.Slice(rearranged, func(i, j int) bool { return uint64(rearranged[i]) < uint64(rearranged[j]) })
	for i := range want {
		if want[i] != rearranged[i] {
			t.Fatalf("bit pattern multiset changed at %d: %#x vs %#x", i, uint64(rearranged[i]), uint64(want[i]))
		}
	}
}

// TestFloat64JobClasses runs a float64 job through each shape a job takes
// — small and in place ("batch", the label of the class it once was),
// staged (MLM-sort by name), spill (DDR squeeze) — and asserts the result
// is the bit-exact total order in every one.
func TestFloat64JobClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))

	t.Run("batch", func(t *testing.T) {
		s := newTestScheduler(t, testConfig())
		input := f64Job(rng, 500)
		j, err := s.Submit(JobSpec{Data: append([]int64(nil), input...), KeyType: wire.KindFloat64})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if j.Spilled() {
			t.Fatal("small job classified as spill")
		}
		waitDone(t, j)
		out, err := j.Result()
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		checkF64Sorted(t, out, input)
	})

	t.Run("staged", func(t *testing.T) {
		s := newTestScheduler(t, testConfig())
		input := f64Job(rng, 40000)
		j, err := s.Submit(JobSpec{
			Data:      append([]int64(nil), input...),
			KeyType:   wire.KindFloat64,
			Algorithm: mlmsort.MLMSort,
		})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitDone(t, j)
		out, err := j.Result()
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		checkF64Sorted(t, out, input)
	})

	t.Run("spill", func(t *testing.T) {
		s := newTestScheduler(t, spillTestConfig(t))
		input := f64Job(rng, 60000)
		j, err := s.Submit(JobSpec{Data: append([]int64(nil), input...), KeyType: wire.KindFloat64})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if !j.Spilled() {
			t.Fatal("job not classified as spill")
		}
		waitDone(t, j)
		got := drainStreamF64(t, j)
		checkF64Sorted(t, got, input)
	})
}

// drainStreamF64 collects a float64 StreamResult without the int64
// nondecreasing assertion (raw float bits are not int64-ordered).
func drainStreamF64(t *testing.T, j *Job) []int64 {
	t.Helper()
	var out []int64
	n, err := j.StreamResult(context.Background(), func(batch []int64) error {
		out = append(out, batch...)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamResult: %v", err)
	}
	if int(n) != len(out) {
		t.Fatalf("StreamResult count %d, sink received %d", n, len(out))
	}
	return out
}

// recordCells builds n records (2n cells) with dup-heavy keys and
// payload = submission index, the stability witness.
func recordCells(rng *rand.Rand, n int) []int64 {
	cells := make([]int64, 2*n)
	for i := 0; i < n; i++ {
		cells[2*i] = rng.Int63n(64)
		cells[2*i+1] = int64(i)
	}
	return cells
}

// checkRecordsStable asserts got is the stable sort of input by key.
func checkRecordsStable(t *testing.T, got, input []int64) {
	t.Helper()
	if len(got) != len(input) {
		t.Fatalf("got %d cells, want %d", len(got), len(input))
	}
	want := psort.KVsFromInt64s(append([]int64(nil), input...))
	sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	gotKVs := psort.KVsFromInt64s(got)
	for i := range want {
		if gotKVs[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, gotKVs[i], want[i])
		}
	}
}

// TestRecordJobClasses runs a record job through the in-memory and spill
// classes, at both sizes and on both flows, and asserts stable key order
// with payloads intact.
func TestRecordJobClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	t.Run("staged", func(t *testing.T) {
		s := newTestScheduler(t, testConfig())
		input := recordCells(rng, 3000)
		j, err := s.Submit(JobSpec{
			Data:      append([]int64(nil), input...),
			KeyType:   wire.KindRecord,
			Algorithm: mlmsort.MLMDDr,
		})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if j.Spilled() {
			t.Fatal("staged record job classified as spill")
		}
		waitDone(t, j)
		out, err := j.Result()
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		checkRecordsStable(t, out, input)
	})

	t.Run("small-still-staged", func(t *testing.T) {
		// A small record job is planned like any other job: staged when it
		// names MLM-sort, one megachunk in place when it names nothing.
		s := newTestScheduler(t, testConfig())
		for _, tc := range []struct {
			alg  mlmsort.Algorithm
			plan string
		}{
			{mlmsort.MLMSort, "flow=staged megachunk=4096 megachunks=1 lease=131072"},
			{0, "flow=in-place megachunk=400 megachunks=1 lease=4096"},
		} {
			input := recordCells(rng, 200)
			j, err := s.Submit(JobSpec{
				Data:      append([]int64(nil), input...),
				KeyType:   wire.KindRecord,
				Algorithm: tc.alg,
			})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			waitDone(t, j)
			out, err := j.Result()
			if err != nil {
				t.Fatalf("result: %v", err)
			}
			checkRecordsStable(t, out, input)
			if got := planEvents(j); len(got) != 1 || got[0] != tc.plan {
				t.Errorf("plan events %q, want %q", got, tc.plan)
			}
		}
	})

	t.Run("spill", func(t *testing.T) {
		s := newTestScheduler(t, spillTestConfig(t))
		input := recordCells(rng, 30000) // 60000 cells, over the DDR squeeze
		j, err := s.Submit(JobSpec{
			Data:      append([]int64(nil), input...),
			KeyType:   wire.KindRecord,
			Algorithm: mlmsort.MLMSort,
		})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if !j.Spilled() {
			t.Fatal("record job not classified as spill")
		}
		waitDone(t, j)
		var out []int64
		n, err := j.StreamResult(context.Background(), func(batch []int64) error {
			if len(batch)%2 != 0 {
				t.Errorf("spill stream delivered odd batch of %d cells", len(batch))
			}
			out = append(out, batch...)
			return nil
		})
		if err != nil {
			t.Fatalf("StreamResult: %v", err)
		}
		if int(n) != len(out) {
			t.Fatalf("StreamResult count %d, sink received %d", n, len(out))
		}
		checkRecordsStable(t, out, input)
	})
}

// TestKeyTypeValidation pins the admission-side spec checks: unknown
// key types, odd record payloads, and record jobs naming algorithms
// with no record data flow are all ErrBadSpec — refused before any
// resources are leased.
func TestKeyTypeValidation(t *testing.T) {
	s := newTestScheduler(t, testConfig())

	if _, err := s.Submit(JobSpec{Data: []int64{1, 2}, KeyType: wire.Kind(9)}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown key type: err = %v, want ErrBadSpec", err)
	}
	if _, err := s.Submit(JobSpec{Data: []int64{1, 2, 3}, KeyType: wire.KindRecord, Algorithm: mlmsort.MLMSort}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("odd record cells: err = %v, want ErrBadSpec", err)
	}
	// GNUFlat is the zero Algorithm and is rewritten to the staged default
	// at submit, so GNUCache is the addressable no-record-flow algorithm.
	if _, err := s.Submit(JobSpec{Data: []int64{1, 2, 3, 4}, KeyType: wire.KindRecord, Algorithm: mlmsort.GNUCache}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("record job on GNUCache: err = %v, want ErrBadSpec", err)
	}
}

// TestFloat64RejectionRestoresBits: admission maps float64 bits to the
// sortable image before taking the scheduler lock; a rejection must
// hand the caller's buffer back bit-identical, not in the mapped image.
func TestFloat64RejectionRestoresBits(t *testing.T) {
	cfg := testConfig()
	s := newTestScheduler(t, cfg)
	s.Close()

	input := f64Job(rand.New(rand.NewSource(3)), 64)
	data := append([]int64(nil), input...)
	if _, err := s.Submit(JobSpec{Data: data, KeyType: wire.KindFloat64}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
	for i := range input {
		if data[i] != input[i] {
			t.Fatalf("cell %d mutated by rejected submit: %#x, want %#x", i, uint64(data[i]), uint64(input[i]))
		}
	}
}
