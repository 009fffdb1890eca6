// Command kernelbench measures psort's public kernels against a
// baseline reachable from outside the package, prints the table and,
// with -out, writes the results as a JSON benchmark record. It produced
// the committed BENCH_PR3.json and BENCH_PR10.json. The pairs whose
// baseline is a psort internal — the per-element loser-tree drain
// against the gallop-batched one, the plain radix scatter against the
// tiled one — are the in-package benchmarks in
// internal/psort/kernel_bench_test.go (go test -bench 'Merge|Scatter').
//
// Pairs:
//
//   - serial introsort vs LSD radix sort (1e5 and 1e6 elements, and
//     1<<23: the one size above the tiling threshold, where the radix
//     side scatters through the write buffers)
//   - linear two-way merge vs galloping Merge2 (random and disjoint)
//   - stdlib slices.SortFunc vs the typed kernels: float64 total order,
//     key+payload records, and byte strings (1e6 keys)
//
// Usage:
//
//	kernelbench                    # print the table
//	kernelbench -out bench.json    # and write the JSON record
//	kernelbench -skip-tiled        # skip the 1<<23 pair (CI)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"knlmlm/internal/psort"
	"knlmlm/internal/workload"
)

// measurement is one side of a benchmark pair.
type measurement struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	MBPerS  float64 `json:"mb_per_s"`
	Iters   int     `json:"iterations"`
}

// pair is one old-vs-new comparison. Speedup > 1 means the candidate is
// faster than the baseline.
type pair struct {
	Name      string      `json:"name"`
	Baseline  measurement `json:"baseline"`
	Candidate measurement `json:"candidate"`
	Speedup   float64     `json:"speedup"`
}

type record struct {
	Suite     string `json:"suite"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Pairs     []pair `json:"pairs"`
}

func measure(name string, fn func(b *testing.B)) measurement {
	r := testing.Benchmark(fn)
	m := measurement{
		Name:    name,
		NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N),
		Iters:   r.N,
	}
	if r.Bytes > 0 && r.T > 0 {
		m.MBPerS = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6
	}
	return m
}

func compare(name string, baseName string, base func(b *testing.B), candName string, cand func(b *testing.B)) pair {
	b := measure(baseName, base)
	c := measure(candName, cand)
	return pair{Name: name, Baseline: b, Candidate: c, Speedup: b.NsPerOp / c.NsPerOp}
}

// benchSort mirrors internal/psort's benchSort: the copy-back is outside
// the timed region.
func benchSort(n int, sortFn func([]int64)) func(b *testing.B) {
	return func(b *testing.B) {
		src := workload.Generate(workload.Random, n, 1)
		buf := make([]int64, n)
		b.SetBytes(int64(n * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(buf, src)
			b.StartTimer()
			sortFn(buf)
		}
	}
}

// merge2Linear is the pre-galloping two-way merge, kept here as the
// baseline side of the Merge2 pair (the internal reference copy is
// unexported). Ties go to a, matching Merge2's stability rule.
func merge2Linear(dst, a, b []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

func benchMerge2(a, bb []int64, fn func(dst, a, b []int64)) func(b *testing.B) {
	return func(b *testing.B) {
		dst := make([]int64, len(a)+len(bb))
		b.SetBytes(int64(len(dst) * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn(dst, a, bb)
		}
	}
}

// benchFloat64Sort pairs a []float64 sorter against the same random
// input; copy-back stays outside the timed region.
func benchFloat64Sort(n int, sortFn func([]float64)) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64() * 1e6
		}
		buf := make([]float64, n)
		b.SetBytes(int64(n * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(buf, src)
			b.StartTimer()
			sortFn(buf)
		}
	}
}

func benchRecordSort(n int, sortFn func([]psort.KV)) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		src := make([]psort.KV, n)
		for i := range src {
			src[i] = psort.KV{Key: rng.Int63(), Payload: int64(i)}
		}
		buf := make([]psort.KV, n)
		b.SetBytes(int64(n * 16))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(buf, src)
			b.StartTimer()
			sortFn(buf)
		}
	}
}

// benchStringSort sorts n short byte strings (8..24 bytes, a shared
// 4-byte prefix on half of them, the shape URL/key workloads take).
// Only the headers are copied back between iterations; the kernels
// never mutate the byte contents.
func benchStringSort(n int, sortFn func([][]byte)) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		src := make([][]byte, n)
		total := 0
		for i := range src {
			l := 8 + rng.Intn(17)
			s := make([]byte, l)
			rng.Read(s)
			if i%2 == 0 {
				copy(s, "key/")
			}
			src[i] = s
			total += l
		}
		buf := make([][]byte, n)
		b.SetBytes(int64(total))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(buf, src)
			b.StartTimer()
			sortFn(buf)
		}
	}
}

func main() {
	out := flag.String("out", "", "also write the JSON record to this path")
	skipTiled := flag.Bool("skip-tiled", false, "skip the 1<<23 pair, the size that scatters through the write buffers (128 MiB of buffers; slow on small CI runners)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "kernelbench: %v\n", err)
		os.Exit(2)
	}

	sortedRandom := func(n int, seed int64) []int64 {
		xs := workload.Generate(workload.Random, n, seed)
		psort.Serial(xs)
		return xs
	}
	disjoint := func(n int, base int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = base + int64(i)
		}
		return xs
	}

	radix := func(n int) func([]int64) {
		scratch := make([]int64, n)
		return func(xs []int64) { psort.RadixSortScratch(xs, scratch) }
	}

	rec := record{
		Suite:     "kernelbench-pr10",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	add := func(p pair) {
		rec.Pairs = append(rec.Pairs, p)
		fmt.Printf("%-22s %-14s %10.0f ns/op   %-14s %10.0f ns/op   %5.2fx\n",
			p.Name, p.Baseline.Name, p.Baseline.NsPerOp, p.Candidate.Name, p.Candidate.NsPerOp, p.Speedup)
	}

	add(compare("sort-1e5", "serial", benchSort(100_000, psort.Serial),
		"radix", benchSort(100_000, radix(100_000))))
	add(compare("sort-1e6", "serial", benchSort(1_000_000, psort.Serial),
		"radix", benchSort(1_000_000, radix(1_000_000))))

	a, b := sortedRandom(500_000, 7), sortedRandom(500_000, 8)
	add(compare("merge2-random", "linear", benchMerge2(a, b, merge2Linear),
		"gallop", benchMerge2(a, b, psort.Merge2)))
	da, db := disjoint(500_000, 0), disjoint(500_000, 500_000)
	add(compare("merge2-disjoint", "linear", benchMerge2(da, db, merge2Linear),
		"gallop", benchMerge2(da, db, psort.Merge2)))

	// The write-buffered scatter only dispatches above its size floor;
	// 1<<23 keys (64 MiB) is where the 256 naked scatter streams start
	// missing TLB and L2 on every store.
	if !*skipTiled {
		const nt = 1 << 23
		add(compare("sort-8e6", "serial", benchSort(nt, psort.Serial),
			"radix-tiled", benchSort(nt, radix(nt))))
	}

	// Generic key kernels vs the stdlib comparison sorts, 1e6 keys each.
	// These are the pairs the CI bench-smoke floor watches.
	f64Scratch := make([]float64, 1_000_000)
	add(compare("f64-sort-1e6",
		"slices.SortFunc", benchFloat64Sort(1_000_000, func(xs []float64) {
			slices.SortFunc(xs, func(x, y float64) int {
				if psort.Float64TotalLess(x, y) {
					return -1
				}
				if psort.Float64TotalLess(y, x) {
					return 1
				}
				return 0
			})
		}),
		"radix-bitflip", benchFloat64Sort(1_000_000, func(xs []float64) {
			psort.SortFloat64sScratch(xs, f64Scratch)
		})))

	kvScratch := make([]psort.KV, 1_000_000)
	add(compare("record-sort-1e6",
		"slices.SortFunc", benchRecordSort(1_000_000, func(rs []psort.KV) {
			slices.SortFunc(rs, func(x, y psort.KV) int {
				switch {
				case x.Key < y.Key:
					return -1
				case x.Key > y.Key:
					return 1
				}
				return 0
			})
		}),
		"record-radix", benchRecordSort(1_000_000, func(rs []psort.KV) {
			psort.SortRecordsScratch(rs, kvScratch)
		})))

	strScratch := make([][]byte, 1_000_000)
	add(compare("string-sort-1e6",
		"slices.SortFunc", benchStringSort(1_000_000, func(ss [][]byte) {
			slices.SortFunc(ss, bytes.Compare)
		}),
		"msd-radix", benchStringSort(1_000_000, func(ss [][]byte) {
			psort.SortByteStringsScratch(ss, strScratch)
		})))

	if *out == "" {
		return
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
