// Quickstart: build the paper's simulated KNL, run MLM-sort on a
// 2-billion-element problem (16 GB — too big for the 16 GiB MCDRAM once
// merge space is counted), and print the phase breakdown. Then sort a
// small array for real to show the executable side of the library.
package main

import (
	"fmt"
	"log"

	"knlmlm/internal/mlmsim"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/workload"
)

func main() {
	// --- Simulated side: paper-scale timing -----------------------------
	cfg := mlmsim.PaperSortConfig(2_000_000_000, workload.Random)
	res := mlmsim.Simulate(mlmsort.MLMSort, cfg)
	fmt.Printf("MLM-sort, 2G random int64 elements on the simulated KNL: %.2fs\n\n", res.Time.Seconds())
	fmt.Println("phase breakdown:")
	fmt.Print(res.Trace.String())

	// Compare with the baseline in one line each.
	for _, a := range []mlmsort.Algorithm{mlmsort.GNUFlat, mlmsort.GNUCache, mlmsort.MLMImplicit} {
		r := mlmsim.Simulate(a, cfg)
		fmt.Printf("%-13s %.2fs\n", a.String()+":", r.Time.Seconds())
	}

	// --- Real side: the same algorithm actually sorting host data -------
	xs := workload.Generate(workload.Random, 1_000_000, 42)
	if err := mlmsort.RunReal(mlmsort.MLMSort, xs, 8, 0); err != nil {
		log.Fatal(err)
	}
	if !workload.IsSorted(xs) {
		log.Fatal("not sorted — bug")
	}
	fmt.Printf("\nreal MLM-sort sorted %d elements on this host (verified)\n", len(xs))
}
