package mlmsort

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
	"knlmlm/internal/memkind"
	"knlmlm/internal/tune"
	"knlmlm/internal/workload"
)

// writebackMC is the megachunk length of the write-back tests: whole
// records, and wide enough (four tune.MinMegachunk blocks and a ragged
// tail) that a sorter of width 4 cuts four blocks.
const writebackMC = 4*tune.MinMegachunk + 16

// writebackJob is a job of the given megachunk count whose last megachunk
// is short, int64 keys or key+payload records with few distinct keys.
func writebackJob(rng *rand.Rand, megachunks int, elem ElemKind) []int64 {
	cells := megachunks*writebackMC - 2*rng.Intn(writebackMC/4)
	if elem == ElemKV {
		return recordJob(rng, cells/2)
	}
	xs := make([]int64, cells)
	for i := range xs {
		xs[i] = rng.Int63n(1<<20) - 1<<19
	}
	return xs
}

// sortedRef is the stable reference for either element kind.
func sortedRef(xs []int64, elem ElemKind) []int64 {
	if elem == ElemKV {
		return sortedRecordsRef(xs)
	}
	ref := slices.Clone(xs)
	slices.Sort(ref)
	return ref
}

// poolDelta is what one run asked of the shared pool, where the run
// buffer comes from; each run under test draws its scratch and staging
// from a pool of its own, so the shared pool sees the run buffer alone.
func poolDelta(run func()) mem.PoolStats {
	before := mem.Pool.Stats()
	run()
	after := mem.Pool.Stats()
	return mem.PoolStats{
		Gets:    after.Gets - before.Gets,
		Puts:    after.Puts - before.Puts,
		Forgets: after.Forgets - before.Forgets,
	}
}

// TestMegachunkWritebackDifferential runs every MLM variant at every
// megachunk count the final merge's round shapes distinguish (one run; an
// odd count of pairwise rounds; an even count, whose first round takes
// four runs), on int64 keys and on records, against the stable sort. The
// sorter width turns through 1 to 4 across the cases, so every variant
// and key type meets every width and every count meets each width twice.
// The staged variants fail every third staging allocation, so staged and
// degraded megachunks merge into the same run buffer. The run buffer is
// drawn once and returned once when there are megachunks to merge, and
// not at all otherwise.
func TestMegachunkWritebackDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for ai, a := range []Algorithm{MLMSort, MLMHybrid, MLMDDr, MLMImplicit} {
		for ei, elem := range []ElemKind{ElemInt64, ElemKV} {
			for ci, count := range []int{1, 2, 3, 4, 5, 8, 9, 16} {
				threads := 1 + (ai+ei+ci)%4
				name := fmt.Sprintf("%v/%v/%d-megachunks/width-%d", a, elem, count, threads)
				xs := writebackJob(rng, count, elem)
				want := sortedRef(xs, elem)
				failing := failChunks{}
				for i := 1; i < count; i += 3 {
					failing[i] = true
				}
				opts := RealOptions{Elem: elem, Pool: mem.NewSlicePool(), Staging: memkind.Staging{Faults: failing}}
				var stats RealStats
				var err error
				got := poolDelta(func() {
					stats, err = RunRealResilient(context.Background(), a, xs, threads, writebackMC, opts)
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(xs, want) {
					t.Fatalf("%s: not the stable sorted order", name)
				}
				if stats.Megachunks != count {
					t.Errorf("%s: %d megachunks, want %d", name, stats.Megachunks, count)
				}
				if a.staged() && stats.Degraded != len(failing) {
					t.Errorf("%s: %d megachunks degraded, want %d", name, stats.Degraded, len(failing))
				}
				drawn := int64(0)
				if count > 1 {
					drawn = 1
				}
				if got.Gets != drawn || got.Puts != drawn || got.Forgets != 0 {
					t.Errorf("%s: run buffer drawn %d, returned %d, written off %d times; want %d, %d, 0",
						name, got.Gets, got.Puts, got.Forgets, drawn, drawn)
				}
			}
		}
	}
}

// slowChunk is a Policy.Wrap whose compute calls on chunk 1 first run
// hook, then the real compute.
func slowChunk(hook func()) func(exec.Stages) exec.Stages {
	return func(s exec.Stages) exec.Stages {
		inner := s.Compute
		s.Compute = func(i int, buf []int64) error {
			if i == 1 {
				hook()
			}
			return inner(i, buf)
		}
		return s
	}
}

// TestRunBufferLifetime: a run cancelled mid-phase 1 returns the run
// buffer (no attempt was abandoned) and leaves xs a permutation of the
// input; a run aborted by a compute deadline writes it off and never
// returns it, because the abandoned attempt may still be merging into it.
func TestRunBufferLifetime(t *testing.T) {
	for _, a := range []Algorithm{MLMSort, MLMDDr} {
		t.Run(a.String()+"/cancel", func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			xs := writebackJob(rng, 4, ElemInt64)
			in := workload.Fingerprint(xs)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := RealOptions{Pool: mem.NewSlicePool()}
			opts.Wrap = slowChunk(cancel)
			var err error
			got := poolDelta(func() { _, err = RunRealResilient(ctx, a, xs, 2, writebackMC, opts) })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got.Gets != 1 || got.Puts != 1 || got.Forgets != 0 {
				t.Errorf("run buffer drawn %d, returned %d, written off %d times; want 1, 1, 0", got.Gets, got.Puts, got.Forgets)
			}
			if workload.Fingerprint(xs) != in {
				t.Error("a cancelled run lost or duplicated keys")
			}
		})
		t.Run(a.String()+"/deadline", func(t *testing.T) {
			rng := rand.New(rand.NewSource(32))
			xs := writebackJob(rng, 4, ElemInt64)
			release := make(chan struct{})
			opts := RealOptions{Pool: mem.NewSlicePool()}
			opts.ChunkTimeout = 20 * time.Millisecond
			opts.Wrap = slowChunk(func() { <-release })
			var err error
			got := poolDelta(func() { _, err = RunRealResilient(context.Background(), a, xs, 2, writebackMC, opts) })
			close(release) // the abandoned attempt now merges into the written-off buffer
			if !errors.Is(err, exec.ErrDeadline) {
				t.Fatalf("err = %v, want exec.ErrDeadline", err)
			}
			if got.Gets != 1 || got.Puts != 0 || got.Forgets != 1 {
				t.Errorf("run buffer drawn %d, returned %d, written off %d times; want 1, 0, 1", got.Gets, got.Puts, got.Forgets)
			}
		})
	}
}
