package psort

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// scriptedSource is a BlockSource that plays back pre-cut blocks of one
// run. It holds the merge to the interface's contract from the source's
// side: a block is only promised until the next call, so each Next
// scribbles over the block it handed out before — a merge that still
// reads a block it has given back emits garbage and fails the
// differential.
type scriptedSource struct {
	blocks [][]int64
	next   int
	err    error // returned once the blocks run out, in place of io.EOF
}

func (s *scriptedSource) Next(ctx context.Context) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.next > 0 {
		prev := s.blocks[s.next-1]
		for i := range prev {
			prev[i] = -1 << 62
		}
	}
	if s.next == len(s.blocks) {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	s.next++
	return s.blocks[s.next-1], nil
}

// A blocker cuts one run (cells-wide elements) into the element counts of
// its blocks.
type blocker func(run []int64, cells int, rng *rand.Rand) []int

var blockers = map[string]blocker{
	"whole": func(run []int64, cells int, _ *rand.Rand) []int { return []int{len(run) / cells} },
	"one-element": func(run []int64, cells int, _ *rand.Rand) []int {
		cuts := make([]int, len(run)/cells)
		for i := range cuts {
			cuts[i] = 1
		}
		return cuts
	},
	"random": func(run []int64, cells int, rng *rand.Rand) []int {
		var cuts []int
		for left := len(run) / cells; left > 0; {
			n := 1 + rng.Intn(min(left, 9))
			cuts = append(cuts, n)
			left -= n
		}
		return cuts
	},
	// Every block ends inside a run of equal keys wherever the data has
	// one: the next block starts with the key this one ended on.
	"split-ties": func(run []int64, cells int, _ *rand.Rand) []int {
		var cuts []int
		n := 0
		for e := 0; e < len(run)/cells; e++ {
			n++
			if e+1 < len(run)/cells && run[e*cells] == run[(e+1)*cells] && n >= 2 {
				cuts = append(cuts, n)
				n = 0
			}
		}
		if n > 0 {
			cuts = append(cuts, n)
		}
		return cuts
	},
}

// scriptSources copies each run into blocks cut by b. The runs stay
// untouched for the reference merge.
func scriptSources(runs [][]int64, cells int, b blocker, rng *rand.Rand) []*scriptedSource {
	srcs := make([]*scriptedSource, len(runs))
	for i, run := range runs {
		srcs[i] = &scriptedSource{}
		rest := slices.Clone(run)
		for _, n := range b(run, cells, rng) {
			srcs[i].blocks = append(srcs[i].blocks, rest[:n*cells:n*cells])
			rest = rest[n*cells:]
		}
	}
	return srcs
}

func blockSources(srcs []*scriptedSource) []BlockSource {
	out := make([]BlockSource, len(srcs))
	for i, s := range srcs {
		out[i] = s
	}
	return out
}

// windowedRuns builds k sorted runs of cells-wide elements, n elements in
// all, that a window-wide WindowMerge can merge: element t of the sorted
// whole has home run t*k/n and lands at most window-1 runs later, so runs
// closer than window overlap freely (ties included) and runs at least
// window apart are ordered. Keys come from a small domain so ties span
// blocks, rounds and runs; under cells == 2 the payload numbers the
// elements in (run, position) order, so any instability shows up as a
// payload mismatch against the serial record round.
func windowedRuns(rng *rand.Rand, n, k, window, cells, domain int) [][]int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(domain)) - int64(domain/2)
	}
	slices.Sort(keys)
	runs := make([][]int64, k)
	for t, key := range keys {
		r := min(t*k/n+rng.Intn(window), k-1)
		runs[r] = append(runs[r], key)
		if cells == 2 {
			runs[r] = append(runs[r], 0)
		}
	}
	if cells == 2 {
		next := int64(0)
		for _, run := range runs {
			for e := 1; e < len(run); e += 2 {
				run[e] = next
				next++
			}
		}
	}
	return runs
}

// referenceMerge is the in-memory kernel the windowed merge must agree
// with cell for cell: one serial MergeRound over whole runs, stable
// under cells 2.
func referenceMerge(runs [][]int64, cells int) []int64 {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	want := make([]int64, total)
	MergeRound(want, runs, 1, cells)
	return want
}

// collect runs WindowMerge over the sources and gathers what it emits.
func collect(ctx context.Context, srcs []BlockSource, cells, window int, hook func(emitted int) error) ([]int64, int64, error) {
	var got []int64
	n, err := WindowMerge(ctx, srcs, cells, window, 2, nil, func(block []int64) error {
		if len(block) == 0 {
			return errors.New("empty block emitted")
		}
		got = append(got, block...)
		if hook != nil {
			return hook(len(got))
		}
		return nil
	})
	return got, n, err
}

// TestWindowMergeDifferential feeds the merge scripted sources across
// block shapes, cell widths and window widths and holds it to the
// in-memory kernels over the same runs.
func TestWindowMergeDifferential(t *testing.T) {
	const k = 5
	for _, cells := range []int{1, 2} {
		for _, window := range []int{1, 2, k} {
			for name, b := range blockers {
				for _, domain := range []int{3, 40, 1 << 30} {
					rng := rand.New(rand.NewSource(int64(cells*1000 + window*100 + domain%97)))
					runs := windowedRuns(rng, 400, k, window, cells, domain)
					want := referenceMerge(runs, cells)
					got, n, err := collect(context.Background(), blockSources(scriptSources(runs, cells, b, rng)), cells, window, nil)
					if err != nil {
						t.Fatalf("cells=%d window=%d %s domain=%d: %v", cells, window, name, domain, err)
					}
					if n != int64(len(want)) || !slices.Equal(got, want) {
						t.Fatalf("cells=%d window=%d %s domain=%d: emitted %d cells, diverges from the in-memory merge of %d", cells, window, name, domain, n, len(want))
					}
				}
			}
		}
	}
}

// TestWindowMergeEdges covers the shapes the table above cannot: no
// sources, empty sources, a lone source passed through in place, and
// blocks a source delivers empty.
func TestWindowMergeEdges(t *testing.T) {
	if _, n, err := collect(context.Background(), nil, 1, 0, nil); n != 0 || err != nil {
		t.Fatalf("no sources: n=%d err=%v", n, err)
	}
	srcs := []BlockSource{
		&scriptedSource{},
		&scriptedSource{blocks: [][]int64{{}, {1, 4}, {}, {4, 9}}},
		&scriptedSource{},
	}
	got, _, err := collect(context.Background(), srcs, 1, 2, nil)
	if err != nil || !slices.Equal(got, []int64{1, 4, 4, 9}) {
		t.Fatalf("lone live source: got %v err=%v", got, err)
	}
}

// TestWindowMergeFailures: every way a merge can end early must surface
// as an error, with what was emitted before it still a sorted prefix of
// the true output.
func TestWindowMergeFailures(t *testing.T) {
	errSource := errors.New("source died")
	errSink := errors.New("sink full")
	rng := rand.New(rand.NewSource(7))
	runs := windowedRuns(rng, 300, 4, 4, 1, 50)
	want := referenceMerge(runs, 1)
	fresh := func() []*scriptedSource { return scriptSources(runs, 1, blockers["random"], rng) }

	t.Run("source error mid-stream", func(t *testing.T) {
		srcs := fresh()
		srcs[2].blocks = srcs[2].blocks[:len(srcs[2].blocks)/2]
		srcs[2].err = errSource
		got, n, err := collect(context.Background(), blockSources(srcs), 1, 0, nil)
		if !errors.Is(err, errSource) {
			t.Fatalf("err = %v, want the source's", err)
		}
		if n != int64(len(got)) || n == 0 || !slices.Equal(got, want[:n]) {
			t.Fatalf("emitted %d cells before the failure; not a prefix of the merge", n)
		}
	})
	t.Run("emit error", func(t *testing.T) {
		got, n, err := collect(context.Background(), blockSources(fresh()), 1, 0, func(emitted int) error {
			if emitted > 100 {
				return errSink
			}
			return nil
		})
		if !errors.Is(err, errSink) {
			t.Fatalf("err = %v, want the sink's", err)
		}
		if n >= int64(len(got)) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("counted %d cells with %d handed to the failing sink", n, len(got))
		}
	})
	t.Run("cancelled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		got, _, err := collect(ctx, blockSources(fresh()), 1, 0, func(emitted int) error {
			if emitted > 100 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(got) == len(want) {
			t.Fatal("merge ran to completion despite the cancellation")
		}
	})
	t.Run("overlap beyond the window", func(t *testing.T) {
		// Three hand-built sources whose ranges all overlap, merged two at
		// a time: the third holds keys below what the first two emit.
		srcs := []BlockSource{
			&scriptedSource{blocks: [][]int64{{1, 5}, {9, 13}}},
			&scriptedSource{blocks: [][]int64{{2, 6}, {10, 14}}},
			&scriptedSource{blocks: [][]int64{{3, 7}, {11, 15}}},
		}
		got, _, err := collect(context.Background(), srcs, 1, 2, nil)
		if err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Fatalf("err = %v (emitted %v), want an overlap error", err, got)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("out-of-order cells reached the sink before the error: %v", got)
		}
	})
	t.Run("neighbours may overlap", func(t *testing.T) {
		// The first source drains while the second still holds keys above
		// the third's: the window must already include the third.
		srcs := []BlockSource{
			&scriptedSource{blocks: [][]int64{{1, 2}}},
			&scriptedSource{blocks: [][]int64{{3, 6}}},
			&scriptedSource{blocks: [][]int64{{4, 7}}},
		}
		got, _, err := collect(context.Background(), srcs, 1, 2, nil)
		if err != nil || !slices.Equal(got, []int64{1, 2, 3, 4, 6, 7}) {
			t.Fatalf("got %v err=%v", got, err)
		}
	})
	t.Run("split record", func(t *testing.T) {
		srcs := []BlockSource{&scriptedSource{blocks: [][]int64{{1, 0, 2}}}}
		if _, _, err := collect(context.Background(), srcs, 2, 0, nil); err == nil {
			t.Fatal("a block of one and a half records was accepted")
		}
	})
	t.Run("cell width", func(t *testing.T) {
		if _, _, err := collect(context.Background(), nil, 3, 0, nil); err == nil {
			t.Fatal("cell width 3 was accepted")
		}
	})
}

// TestMergeRoundParallelMatchesSerial is the differential for the merge
// fan-out: above the parallelMergeMin threshold MergeRound must produce
// exactly what the serial loser tree does, for several run counts and
// ragged run lengths.
func TestMergeRoundParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for _, k := range []int{2, 3, 7} {
		per := parallelMergeMin/k + 1
		runs := make([][]int64, k)
		sum := 0
		for i := range runs {
			n := per + rng.Intn(257) // ragged, total past the threshold
			r := make([]int64, n)
			for j := range r {
				r[j] = rng.Int63() - rng.Int63()
			}
			slices.Sort(r)
			runs[i] = r
			sum += n
		}
		want := make([]int64, sum)
		MergeK(want, runs...)
		got := make([]int64, sum)
		MergeRound(got, runs, 4, 1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: parallel round diverges at %d: %d != %d", k, i, got[i], want[i])
			}
		}
	}
}

// FuzzWindowMerge drives the merge from fuzzed shape parameters. With
// sources built for the window the output must equal the in-memory
// merge; with sources that overlap at random the merge may instead
// refuse — but whatever it emits must be in order, and a completed merge
// must be the sorted whole.
func FuzzWindowMerge(f *testing.F) {
	// Seeds mirror TestWindowMergeDifferential's axes.
	for _, cells := range []uint8{1, 2} {
		for _, window := range []uint8{1, 2, 5} {
			for _, domain := range []uint16{3, 40, 60000} {
				f.Add(int64(cells)*1000+int64(window), uint16(400), uint8(5), window, cells, domain, true)
			}
		}
	}
	f.Add(int64(9), uint16(64), uint8(6), uint8(2), uint8(1), uint16(10), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k, window, cells uint8, domain uint16, fits bool) {
		if k == 0 || k > 16 || cells < 1 || cells > 2 || domain == 0 || n > 4096 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		w := int(window)
		if w <= 0 || w > int(k) {
			w = int(k)
		}
		spread := w
		if !fits {
			spread = int(k) // runs overlap at any distance
		}
		runs := windowedRuns(rng, int(n), int(k), spread, int(cells), int(domain))
		want := referenceMerge(runs, int(cells))
		got, _, err := collect(context.Background(), blockSources(scriptSources(runs, int(cells), blockers["random"], rng)), int(cells), int(window), nil)
		for e := int(cells); e < len(got); e += int(cells) {
			if got[e] < got[e-int(cells)] {
				t.Fatalf("emitted out of order at cell %d: %d after %d (err=%v)", e, got[e], got[e-int(cells)], err)
			}
		}
		switch {
		case err == nil && fits:
			if !slices.Equal(got, want) {
				t.Fatal("diverges from the in-memory merge")
			}
		case err == nil:
			for e := 0; e < len(want); e += int(cells) {
				if e >= len(got) || got[e] != want[e] {
					t.Fatalf("completed merge is not the sorted whole at cell %d", e)
				}
			}
		case fits || !strings.Contains(err.Error(), "overlap"):
			t.Fatalf("unexpected error: %v", err)
		}
	})
}
