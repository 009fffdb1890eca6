package mlmsort

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"knlmlm/internal/exec"
	"knlmlm/internal/mem"
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
		Gets: after.Gets - before.Gets,
		Puts: after.Puts - before.Puts,
	}
}

// TestMegachunkWritebackDifferential runs every MLM variant at every
// megachunk count the final merge's round shapes distinguish (one run; an
// odd count of pairwise rounds; an even count, whose first round takes
// four runs), on int64 keys and on records, against the stable sort. The
// sorter width turns through 1 to 4 across the cases, so every variant
// and key type meets every width and every count meets each width twice.
// Every other case draws from a pool with no room, so the sort scratch and
// staging buffers are refused and allocated unpooled (MCDRAM exhausted),
// and the pool's ledger stays empty. The run buffer is
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
				pool := mem.NewSlicePool()
				if ci%2 == 1 {
					pool = mem.NewSlicePoolBudget(1)
				}
				opts := RealOptions{Elem: elem, Pool: pool}
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
				if ci%2 == 1 && (pool.Stats().Refusals == 0 || pool.FootprintBytes() != 0) {
					t.Errorf("%s: a pool with no room refused %d, holds %d bytes", name, pool.Stats().Refusals, pool.FootprintBytes())
				}
				drawn := int64(0)
				if count > 1 {
					drawn = 1
				}
				if got.Gets != drawn || got.Puts != drawn {
					t.Errorf("%s: run buffer drawn %d, returned %d times; want %d, %d",
						name, got.Gets, got.Puts, drawn, drawn)
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

// TestRunBufferLifetime: a run cancelled or failed mid-phase 1 returns
// the run buffer once, after every stage has returned, and leaves xs a
// permutation of the input.
func TestRunBufferLifetime(t *testing.T) {
	boom := errors.New("boom")
	for _, a := range []Algorithm{MLMSort, MLMDDr} {
		for _, tc := range []struct {
			name string
			wrap func(cancel func()) func(exec.Stages) exec.Stages
			want error
		}{
			{"cancel", slowChunk, context.Canceled},
			{"failed", func(func()) func(exec.Stages) exec.Stages {
				return func(s exec.Stages) exec.Stages {
					inner := s.Compute
					s.Compute = func(i int, buf []int64) error {
						if i == 1 {
							return boom
						}
						return inner(i, buf)
					}
					return s
				}
			}, boom},
		} {
			t.Run(a.String()+"/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(31))
				xs := writebackJob(rng, 4, ElemInt64)
				in := workload.Fingerprint(xs)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opts := RealOptions{Pool: mem.NewSlicePool()}
				opts.Wrap = tc.wrap(cancel)
				var err error
				got := poolDelta(func() { _, err = RunRealResilient(ctx, a, xs, 2, writebackMC, opts) })
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				if got.Gets != 1 || got.Puts != 1 {
					t.Errorf("run buffer drawn %d, returned %d times; want 1, 1", got.Gets, got.Puts)
				}
				if workload.Fingerprint(xs) != in {
					t.Errorf("a %s run lost or duplicated keys", tc.name)
				}
			})
		}
	}
}
