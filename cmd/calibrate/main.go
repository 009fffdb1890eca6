// Command calibrate fits the sort cost model's rate constants
// (mlmsim.Calibration) against the paper's Table 1.
//
// The fit minimises the sum of squared log-errors of the within-config
// speedup ratios (each algorithm vs GNU-flat at the same size and input
// order), then reports the single TimeScale that anchors absolute seconds.
// Ratios — who wins and by how much — are the reproduction target; see
// EXPERIMENTS.md. The paper's 6 G random MLM-ddr cell (18.74 s, identical
// to the 4 G cell) is excluded as a probable transcription error.
//
// Usage: calibrate [-iters N] [-v]
package main

import (
	"flag"
	"fmt"
	"math"

	"knlmlm/internal/mlmsim"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/units"
	"knlmlm/internal/workload"
)

// paperCell is one Table 1 measurement.
type paperCell struct {
	paperCellKey
	seconds float64
	exclude bool
}

func paperTable1() []paperCell {
	type row struct {
		alg mlmsort.Algorithm
		t   [3]float64 // 2G, 4G, 6G
	}
	random := []row{
		{mlmsort.GNUFlat, [3]float64{11.92, 24.21, 36.52}},
		{mlmsort.GNUCache, [3]float64{9.73, 19.76, 29.53}},
		{mlmsort.MLMDDr, [3]float64{9.28, 18.74, 18.74}}, // 6G value is a probable paper typo
		{mlmsort.MLMSort, [3]float64{8.09, 16.28, 22.71}},
		{mlmsort.MLMImplicit, [3]float64{7.37, 14.56, 21.66}},
	}
	reverse := []row{
		{mlmsort.GNUFlat, [3]float64{7.97, 16.06, 23.94}},
		{mlmsort.GNUCache, [3]float64{7.19, 14.27, 21.85}},
		{mlmsort.MLMDDr, [3]float64{4.79, 9.53, 14.48}},
		{mlmsort.MLMSort, [3]float64{4.46, 9.02, 12.56}},
		{mlmsort.MLMImplicit, [3]float64{4.10, 8.31, 12.76}},
	}
	sizes := []int64{2_000_000_000, 4_000_000_000, 6_000_000_000}
	var cells []paperCell
	add := func(rows []row, order workload.Order) {
		for _, r := range rows {
			for i, n := range sizes {
				cells = append(cells, paperCell{
					paperCellKey: paperCellKey{n, order, r.alg}, seconds: r.t[i],
					exclude: r.alg == mlmsort.MLMDDr && n == sizes[2],
				})
			}
		}
	}
	add(random, workload.Random)
	add(reverse, workload.Reverse)
	return cells
}

// simGrid simulates every (size, order, algorithm) cell once.
func simGrid(cal mlmsim.Calibration) map[paperCellKey]float64 {
	out := map[paperCellKey]float64{}
	for _, order := range workload.PaperOrders() {
		for _, n := range []int64{2_000_000_000, 4_000_000_000, 6_000_000_000} {
			cfg := mlmsim.PaperSortConfig(n, order)
			cfg.Cal = cal
			for _, a := range mlmsort.Algorithms() {
				out[paperCellKey{n, order, a}] = mlmsim.Simulate(a, cfg).Time.Seconds()
			}
		}
	}
	return out
}

type paperCellKey struct {
	elements int64
	order    workload.Order
	alg      mlmsort.Algorithm
}

// fig7Penalty enforces Figure 7's shape: at 6 G elements, larger chunks
// must not be slower for MLM-sort (flat) nor for MLM-implicit. Each rising
// adjacent pair contributes its squared relative rise.
func fig7Penalty(cal mlmsim.Calibration) float64 {
	var pen float64
	sweep := func(a mlmsort.Algorithm, chunks []int64) {
		prev := -1.0
		for _, ch := range chunks {
			cfg := mlmsim.PaperSortConfig(6_000_000_000, workload.Random)
			cfg.Cal = cal
			cfg.MegachunkElements = ch
			t := mlmsim.Simulate(a, cfg).Time.Seconds()
			if prev > 0 && t > prev {
				d := (t - prev) / prev
				pen += d * d
			}
			prev = t
		}
	}
	sweep(mlmsort.MLMSort, []int64{250_000_000, 500_000_000, 1_000_000_000, 2_000_000_000})
	sweep(mlmsort.MLMImplicit, []int64{500_000_000, 1_500_000_000, 3_000_000_000, 6_000_000_000})
	return pen
}

// loss scores a calibration: squared log-error of speedup ratios plus the
// Figure 7 shape penalty.
func loss(cal mlmsim.Calibration, cells []paperCell) float64 {
	if err := cal.Validate(); err != nil {
		return math.Inf(1)
	}
	sim := simGrid(cal)
	// Index paper GNU-flat baselines.
	base := map[paperCellKey]float64{}
	for _, c := range cells {
		if c.alg == mlmsort.GNUFlat {
			base[paperCellKey{c.elements, c.order, mlmsort.GNUFlat}] = c.seconds
		}
	}
	var sum float64
	for _, c := range cells {
		if c.exclude || c.alg == mlmsort.GNUFlat {
			continue
		}
		pBase := base[paperCellKey{c.elements, c.order, mlmsort.GNUFlat}]
		sBase := sim[paperCellKey{c.elements, c.order, mlmsort.GNUFlat}]
		paperRatio := pBase / c.seconds
		simRatio := sBase / sim[c.paperCellKey]
		d := math.Log(simRatio / paperRatio)
		sum += d * d
	}
	return sum + 20*fig7Penalty(cal) + 30*orderingPenalty(sim)
}

// orderingPenalty is a hinge on Table 1's qualitative ordering: within
// every configuration, MLM-implicit < MLM-sort < MLM-ddr < GNU-cache <
// GNU-flat (random); for reverse inputs the same except the paper itself
// records MLM-implicit slightly behind MLM-sort at 6 G, so only the
// MLM-vs-GNU and sort-vs-ddr relations are enforced there.
func orderingPenalty(sim map[paperCellKey]float64) float64 {
	var pen float64
	hinge := func(faster, slower float64) {
		if faster >= slower {
			d := math.Log(faster / slower)
			pen += d * d
		}
	}
	for _, order := range workload.PaperOrders() {
		for _, n := range []int64{2_000_000_000, 4_000_000_000, 6_000_000_000} {
			at := func(a mlmsort.Algorithm) float64 { return sim[paperCellKey{n, order, a}] }
			hinge(at(mlmsort.MLMSort), at(mlmsort.MLMDDr))
			hinge(at(mlmsort.MLMDDr), at(mlmsort.GNUCache))
			hinge(at(mlmsort.GNUCache), at(mlmsort.GNUFlat))
			if order == workload.Random {
				hinge(at(mlmsort.MLMImplicit), at(mlmsort.MLMSort))
			}
		}
	}
	return pen
}

func main() {
	iters := flag.Int("iters", 40, "coordinate-descent sweeps")
	verbose := flag.Bool("v", false, "print every improvement")
	flag.Parse()

	cells := paperTable1()

	// Multi-start: greedy descent is path-dependent, so begin from several
	// seeds spanning the (latency-penalty, fan-penalty) plane and keep the
	// best basin.
	seeds := []mlmsim.Calibration{mlmsim.DefaultCalibration()}
	for _, pen := range []float64{0.75, 0.85, 0.95} {
		for _, fan := range []float64{0.1, 0.3, 0.5} {
			s := mlmsim.DefaultCalibration()
			s.DDRLatencyPenalty = pen
			s.MergeFanPenalty = fan
			seeds = append(seeds, s)
		}
	}
	cal := seeds[0]
	best := loss(cal, cells)
	for _, s := range seeds[1:] {
		if l := loss(s, cells); l < best {
			best = l
			cal = s
		}
	}
	fmt.Printf("initial loss %.5f\n", best)

	type knob struct {
		name     string
		get      func(*mlmsim.Calibration) float64
		set      func(*mlmsim.Calibration, float64)
		min, max float64
	}
	knobs := []knob{
		{"SSerial",
			func(c *mlmsim.Calibration) float64 { return float64(c.SSerial) / 1e9 },
			func(c *mlmsim.Calibration, v float64) { c.SSerial = units.GBps(v) }, 0.05, 3},
		{"DDRLatencyPenalty",
			func(c *mlmsim.Calibration) float64 { return c.DDRLatencyPenalty },
			func(c *mlmsim.Calibration, v float64) { c.DDRLatencyPenalty = v }, 0.3, 1},
		// SMergeBase is capped near SSerial's scale: merge comparison
		// levels priced far below sort levels would make tiny chunks win
		// on compute, inverting the paper's Figure 7.
		{"SMergeBase",
			func(c *mlmsim.Calibration) float64 { return float64(c.SMergeBase) / 1e9 },
			func(c *mlmsim.Calibration, v float64) { c.SMergeBase = units.GBps(v) }, 0.1, 1.2},
		{"MergeFanPenalty",
			func(c *mlmsim.Calibration) float64 { return c.MergeFanPenalty },
			func(c *mlmsim.Calibration, v float64) { c.MergeFanPenalty = v }, 0.01, 0.6},
		{"GNUWorkInflation",
			func(c *mlmsim.Calibration) float64 { return c.GNUWorkInflation },
			func(c *mlmsim.Calibration, v float64) { c.GNUWorkInflation = v }, 1, 2},
	}

	step := 0.25
	for it := 0; it < *iters; it++ {
		improved := false
		for _, k := range knobs {
			cur := k.get(&cal)
			for _, cand := range []float64{cur * (1 + step), cur * (1 - step)} {
				if cand < k.min || cand > k.max {
					continue
				}
				trial := cal
				k.set(&trial, cand)
				if l := loss(trial, cells); l < best {
					best = l
					cal = trial
					improved = true
					if *verbose {
						fmt.Printf("  it %d: %s=%.4f loss=%.5f\n", it, k.name, cand, l)
					}
				}
			}
		}
		if !improved {
			step /= 2
			if step < 0.005 {
				break
			}
		}
	}

	// Anchor absolute time: geometric mean of paper/sim over all cells.
	// simGrid's times already include the in-fit TimeScale, so the
	// correction multiplies it.
	sim := simGrid(cal)
	var logSum float64
	var count int
	for _, c := range cells {
		if c.exclude {
			continue
		}
		logSum += math.Log(c.seconds / sim[paperCellKey{c.elements, c.order, c.alg}])
		count++
	}
	correction := math.Exp(logSum / float64(count))
	cal.TimeScale *= correction

	fmt.Printf("final loss %.5f\n", best)
	fmt.Printf("SSerial           = %.4f GB/s\n", float64(cal.SSerial)/1e9)
	fmt.Printf("DDRLatencyPenalty = %.4f\n", cal.DDRLatencyPenalty)
	fmt.Printf("SMergeBase        = %.4f GB/s\n", float64(cal.SMergeBase)/1e9)
	fmt.Printf("MergeFanPenalty   = %.4f\n", cal.MergeFanPenalty)
	fmt.Printf("GNUWorkInflation  = %.4f\n", cal.GNUWorkInflation)
	fmt.Printf("TimeScale         = %.4f\n", cal.TimeScale)

	fmt.Println("\nresulting grid (scaled seconds, paper in parentheses):")
	for _, order := range workload.PaperOrders() {
		for _, n := range []int64{2_000_000_000, 4_000_000_000, 6_000_000_000} {
			fmt.Printf("%-8s n=%dG: ", order, n/1_000_000_000)
			for _, a := range mlmsort.Algorithms() {
				simT := sim[paperCellKey{n, order, a}] * correction
				var paperT float64
				for _, c := range cells {
					if c.elements == n && c.order == order && c.alg == a {
						paperT = c.seconds
					}
				}
				fmt.Printf("%s=%.2f(%.2f) ", a, simT, paperT)
			}
			fmt.Println()
		}
	}
}
