package tune

import (
	"testing"

	"knlmlm/internal/units"
)

func TestMegachunk(t *testing.T) {
	const (
		ki   = 1 << 10
		mi   = 1 << 20
		node = 64 * units.MiB // the benchmark node's budget
	)
	for _, tc := range []struct {
		name   string
		cells  int
		width  int
		budget units.Bytes
		flow   Flow
		want   int
	}{
		// In place the footprint is the scratch: ceilPow2(cells) * 8 bytes.
		{"in place, power of two: 8 MiB of scratch fits 64", mi, 1, node, InPlace, mi},
		{"in place, odd n: class 1Mi, 8 MiB, fits, and the job is not rounded", 1_000_001, 1, node, InPlace, 1_000_001},
		{"in place, job = budget: 8Mi cells are 64 MiB", 8 * mi, 1, node, InPlace, 8 * mi},
		{"in place, one cell over: class 16Mi is 128 MiB, so floorPow2(64 MiB / 8)", 8*mi + 1, 1, node, InPlace, 8 * mi},
		{"in place, one record over: the same cut, and 8Mi cells hold whole records", 8*mi + 2, 2, node, InPlace, 8 * mi},
		{"in place, far over: still the largest that fits", 100 * mi, 1, node, InPlace, 8 * mi},
		{"in place, small job: the job, under MinMegachunk because it is", 100, 2, node, InPlace, 100},
		{"in place, budget under MinMegachunk: 16 KiB / 8 = 2Ki, the cap beats the floor", mi, 1, 16 * units.KiB, InPlace, 2 * ki},
		{"in place, budget of one cell: no whole record fits", 4, 2, 8, InPlace, 0},
		{"in place, budget under one cell", 4, 1, 7, InPlace, 0},

		// Staged the footprint is four buffers: the largest megachunk under
		// 64 MiB is floorPow2(64 MiB / 32) = 2Mi.
		{"staged, 1Mi: floorPow2(1Mi / 4)", mi, 1, node, Staged, 256 * ki},
		{"staged, odd n: floorPow2(250000)", 1_000_001, 1, node, Staged, 128 * ki},
		{"staged, 40000: floorPow2(10000)", 40000, 1, node, Staged, 8 * ki},
		{"staged, 10000: floorPow2(2500) = 2Ki, raised to MinMegachunk", 10000, 1, node, Staged, 4 * ki},
		{"staged, 64Mi: floorPow2(16Mi) capped at 2Mi", 64 * mi, 1, node, Staged, 2 * mi},
		{"staged, records: a power of two holds whole records", mi + 2, 2, node, Staged, 256 * ki},
		{"staged, 64 KiB budget: 64 KiB / 32 = 2Ki, the cap beats the floor", mi, 1, 64 * units.KiB, Staged, 2 * ki},
		{"staged, budget under one megachunk", mi, 1, 31, Staged, 0},

		// Spilled: the largest run, held to half the staged maximum (1Mi).
		{"spill, 1Mi: ceilPow2 is 1Mi, half the maximum", mi, 1, node, Spill, mi},
		{"spill, 3Mi: ceilPow2 is 4Mi, held to 1Mi", 3 * mi, 1, node, Spill, mi},
		{"spill, 60000 under 4 MiB: ceilPow2 is 64Ki, half of 128Ki", 60000, 1, 4 * units.MiB, Spill, 64 * ki},
		{"spill, 1000: ceilPow2 is 1Ki, raised to MinMegachunk", 1000, 1, node, Spill, 4 * ki},
	} {
		if got := Megachunk(tc.cells, tc.width, tc.budget, tc.flow); got != tc.want {
			t.Errorf("%s: Megachunk(%d, %d, %v, %v) = %d, want %d", tc.name, tc.cells, tc.width, tc.budget, tc.flow, got, tc.want)
		}
	}
}

// TestMegachunkStagedAndSpillUnchanged holds the staged and spill rules to
// the ones sched.planFor carried before they moved here, written out as
// they stood, over a grid of jobs and budgets.
func TestMegachunkStagedAndSpillUnchanged(t *testing.T) {
	before := func(n int, budget units.Bytes, spill bool) int {
		maxMc := floorPow2(int(int64(budget) / (8 * (3 + 1))))
		mc := floorPow2(n / 4)
		if spill {
			mc = ceilPow2(n)
			if half := maxMc / 2; mc > half {
				mc = half
			}
		}
		if mc < 4096 {
			mc = 4096
		}
		if mc > maxMc {
			mc = maxMc
		}
		return mc
	}
	for _, budget := range []units.Bytes{64, 64 * units.KiB, 2 * units.MiB, 4 * units.MiB, 32 * units.MiB, 64 * units.MiB, units.GiB} {
		for _, n := range []int{2, 200, 4096, 16385, 40000, 60000, 65536, 262144, 1 << 20, 3_000_000, 1 << 24, 1<<28 + 1} {
			if got, want := Megachunk(n, 1, budget, Staged), before(n, budget, false); got != want {
				t.Errorf("staged n=%d budget=%v: %d, was %d", n, budget, got, want)
			}
			if got, want := Megachunk(n, 1, budget, Spill), before(n, budget, true); got != want {
				t.Errorf("spill n=%d budget=%v: %d, was %d", n, budget, got, want)
			}
		}
	}
}

func TestFootprint(t *testing.T) {
	const ki, mi = 1 << 10, 1 << 20
	for _, tc := range []struct {
		flow Flow
		mc   int
		want units.Bytes
	}{
		{Staged, 256 * ki, 8 * units.MiB}, // 4 buffers x 2 MiB: a 1Mi-key job cut four deep
		{Spill, 256 * ki, 8 * units.MiB},  // a spill job stages like any other
		{InPlace, mi, 8 * units.MiB},      // the scratch: the same job as one megachunk
		{InPlace, mi + 1, 16 * units.MiB}, // the pool's next class
		{Staged, 40000, 4 * 64 * ki * 8},  // class 64Ki
		{InPlace, 1, 16},                  // the smallest class is two cells
		{Staged, 0, 4 * 16},
	} {
		if got := tc.flow.Footprint(tc.mc); got != tc.want {
			t.Errorf("%v.Footprint(%d) = %v, want %v", tc.flow, tc.mc, got, tc.want)
		}
		// MaxMegachunk inverts Footprint at class boundaries.
		if max := tc.flow.MaxMegachunk(tc.want); tc.flow.Footprint(max) > tc.want || tc.flow.Footprint(2*max) <= tc.want {
			t.Errorf("%v.MaxMegachunk(%v) = %d is not the largest that fits", tc.flow, tc.want, max)
		}
	}
}
