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

		// Spilled: the largest run, held to half the maximum (4Mi under 64 MiB).
		{"spill, 1Mi: ceilPow2 is 1Mi, under half the maximum", mi, 1, node, Spill, mi},
		{"spill, 12Mi: ceilPow2 is 16Mi, held to 4Mi", 12 * mi, 1, node, Spill, 4 * mi},
		{"spill, 60000 under 4 MiB: ceilPow2 is 64Ki, under half of 512Ki", 60000, 1, 4 * units.MiB, Spill, 64 * ki},
		{"spill, 60000 under 512 KiB: held to half of 64Ki", 60000, 1, 512 * units.KiB, Spill, 32 * ki},
		{"spill, 1000: ceilPow2 is 1Ki, raised to MinMegachunk", 1000, 1, node, Spill, 4 * ki},
		{"spill, records: a power of two holds whole records", 12*mi + 2, 2, node, Spill, 4 * mi},
		{"spill, budget under one cell", mi, 1, 7, Spill, 0},
	} {
		if got := Megachunk(tc.cells, tc.width, tc.budget, tc.flow); got != tc.want {
			t.Errorf("%s: Megachunk(%d, %d, %v, %v) = %d, want %d", tc.name, tc.cells, tc.width, tc.budget, tc.flow, got, tc.want)
		}
	}
}

func TestFootprint(t *testing.T) {
	const ki, mi = 1 << 10, 1 << 20
	for _, tc := range []struct {
		mc   int
		want units.Bytes
	}{
		{256 * ki, 2 * units.MiB},
		{mi, 8 * units.MiB},      // the scratch: a 1Mi-key job as one megachunk
		{mi + 1, 16 * units.MiB}, // the pool's next class
		{40000, 64 * ki * 8},     // class 64Ki
		{1, 16},                  // the smallest class is two cells
		{0, 16},
	} {
		if got := Footprint(tc.mc); got != tc.want {
			t.Errorf("Footprint(%d) = %v, want %v", tc.mc, got, tc.want)
		}
		// MaxMegachunk inverts Footprint at class boundaries.
		if max := MaxMegachunk(tc.want); Footprint(max) > tc.want || Footprint(2*max) <= tc.want {
			t.Errorf("MaxMegachunk(%v) = %d is not the largest that fits", tc.want, max)
		}
	}
}
