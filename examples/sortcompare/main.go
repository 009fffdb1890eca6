// Sortcompare reproduces the paper's Table 1 story at one problem size:
// all five variants, random and reverse inputs, with the repeated-run
// noise model — and verifies the real implementations agree with each
// other on host data.
package main

import (
	"fmt"
	"log"

	"knlmlm/internal/mlmsim"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/workload"
)

func main() {
	const n = 4_000_000_000
	fmt.Printf("sorting %d int64 elements (%.1f GB) on the simulated KNL\n\n", int64(n), float64(n)*8/1e9)

	for _, order := range workload.PaperOrders() {
		cfg := mlmsim.PaperSortConfig(n, order)
		fmt.Printf("%s inputs:\n", order)
		var base float64
		for _, a := range mlmsort.Algorithms() {
			s := mlmsim.Repeated(a, cfg, 10, 1)
			if a == mlmsort.GNUFlat {
				base = s.Mean
			}
			fmt.Printf("  %-13s %6.2fs ± %.4fs   speedup over GNU-flat: %.2fx\n",
				a, s.Mean, s.StdDev, base/s.Mean)
		}
		fmt.Println()
	}

	// Real cross-check: every variant sorts identically on host data.
	ref := workload.Generate(workload.Random, 200_000, 9)
	want := append([]int64(nil), ref...)
	if err := mlmsort.RunReal(mlmsort.GNUFlat, want, 8, 0); err != nil {
		log.Fatal(err)
	}
	for _, a := range mlmsort.Algorithms()[1:] {
		xs := append([]int64(nil), ref...)
		if err := mlmsort.RunReal(a, xs, 8, 0); err != nil {
			log.Fatal(err)
		}
		for i := range xs {
			if xs[i] != want[i] {
				log.Fatalf("%v disagrees with GNU baseline at index %d", a, i)
			}
		}
	}
	fmt.Println("real implementations of all five variants agree element-for-element")
}
