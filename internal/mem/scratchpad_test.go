package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"knlmlm/internal/units"
)

func TestScratchpadBasicAllocFree(t *testing.T) {
	sp := NewScratchpad(1000)
	b, err := sp.Alloc(400)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if b.Size() != 400 || b.off != 0 {
		t.Errorf("block = off %d size %v", b.off, b.Size())
	}
	if sp.InUse() != 400 || sp.Available() != 600 {
		t.Errorf("in use %v, available %v", sp.InUse(), sp.Available())
	}
	sp.Free(b)
	if sp.InUse() != 0 || len(sp.allocs) != 0 {
		t.Errorf("after free: in use %v, live %d", sp.InUse(), len(sp.allocs))
	}
}

func TestScratchpadExhaustion(t *testing.T) {
	sp := NewScratchpad(100)
	if _, err := sp.Alloc(60); err != nil {
		t.Fatal(err)
	}
	_, err := sp.Alloc(60)
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if oom.Requested != 60 || oom.Available != 40 || oom.LargestFree != 40 {
		t.Errorf("oom = %+v", oom)
	}
	if oom.Error() == "" {
		t.Error("empty error message")
	}
}

func TestScratchpadRejectsInvalidSizes(t *testing.T) {
	sp := NewScratchpad(100)
	for _, n := range []units.Bytes{0, -5} {
		if _, err := sp.Alloc(n); err == nil {
			t.Errorf("Alloc(%v) should fail", n)
		}
	}
}

func TestScratchpadFragmentationVsCapacity(t *testing.T) {
	// Allocate three blocks, free the middle one: 40 bytes are available
	// but the largest hole is 20.
	sp := NewScratchpad(100)
	a, _ := sp.Alloc(20)
	b, _ := sp.Alloc(20)
	c, _ := sp.Alloc(40)
	_ = a
	_ = c
	sp.Free(b)
	_, err := sp.Alloc(30)
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("expected fragmentation OOM, got %v", err)
	}
	if oom.LargestFree != 20+20 {
		// tail hole is 100-80=20, freed hole is 20; they are not adjacent
		if oom.LargestFree != 20 {
			t.Errorf("largest free = %v, want 20", oom.LargestFree)
		}
	}
}

func TestScratchpadCoalescing(t *testing.T) {
	sp := NewScratchpad(90)
	a, _ := sp.Alloc(30)
	b, _ := sp.Alloc(30)
	c, _ := sp.Alloc(30)
	// Free in an order that exercises both-side coalescing.
	sp.Free(a)
	sp.Free(c)
	sp.Free(b) // must merge with both neighbours
	big, err := sp.Alloc(90)
	if err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
	if big.off != 0 {
		t.Errorf("full-size block at offset %d", big.off)
	}
}

func TestScratchpadDoubleFreePanics(t *testing.T) {
	sp := NewScratchpad(100)
	b, _ := sp.Alloc(10)
	sp.Free(b)
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	sp.Free(b)
}

func TestScratchpadForeignFreePanics(t *testing.T) {
	sp1 := NewScratchpad(100)
	sp2 := NewScratchpad(100)
	b, _ := sp1.Alloc(10)
	defer func() {
		if recover() == nil {
			t.Error("foreign free should panic")
		}
	}()
	sp2.Free(b)
}

func TestScratchpadPeakTracking(t *testing.T) {
	sp := NewScratchpad(100)
	a, _ := sp.Alloc(40)
	b, _ := sp.Alloc(30)
	sp.Free(a)
	if sp.peak != 70 {
		t.Errorf("peak = %v, want 70", sp.peak)
	}
	sp.Free(b)
	if sp.peak != 70 {
		t.Errorf("peak after frees = %v, want 70", sp.peak)
	}
}

func TestScratchpadReset(t *testing.T) {
	sp := NewScratchpad(100)
	_, _ = sp.Alloc(40)
	sp.Reset()
	if sp.InUse() != 0 || len(sp.allocs) != 0 {
		t.Error("Reset did not clear allocations")
	}
	if _, err := sp.Alloc(100); err != nil {
		t.Errorf("full-capacity alloc after Reset failed: %v", err)
	}
}

func TestScratchpadZeroCapacity(t *testing.T) {
	sp := NewScratchpad(0)
	if _, err := sp.Alloc(1); err == nil {
		t.Error("alloc from zero-capacity scratchpad should fail")
	}
}

func TestScratchpadNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity should panic")
		}
	}()
	NewScratchpad(-1)
}

// Property: random alloc/free sequences preserve the accounting invariants
// (in-use sum matches, no overlapping live blocks, frees always coalesce so
// a drained scratchpad accepts a full-capacity allocation).
func TestScratchpadRandomizedInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := NewScratchpad(1 << 16)
		type live struct{ b Block }
		var blocks []live
		var accounted units.Bytes
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 || len(blocks) == 0 {
				n := units.Bytes(1 + rng.Intn(1<<12))
				b, err := sp.Alloc(n)
				if err != nil {
					continue
				}
				blocks = append(blocks, live{b})
				accounted += b.Size()
			} else {
				i := rng.Intn(len(blocks))
				sp.Free(blocks[i].b)
				accounted -= blocks[i].b.Size()
				blocks = append(blocks[:i], blocks[i+1:]...)
			}
			if sp.InUse() != accounted {
				return false
			}
			// No two live blocks overlap.
			for i := range blocks {
				for j := i + 1; j < len(blocks); j++ {
					a, b := blocks[i].b, blocks[j].b
					if a.off < b.off+int64(b.Size()) &&
						b.off < a.off+int64(a.Size()) {
						return false
					}
				}
			}
		}
		for _, l := range blocks {
			sp.Free(l.b)
		}
		if sp.InUse() != 0 {
			return false
		}
		_, err := sp.Alloc(1 << 16)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestScratchpadFractionalByteRoundsUp(t *testing.T) {
	sp := NewScratchpad(10)
	b, err := sp.Alloc(units.Bytes(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 3 {
		t.Errorf("fractional request size = %v, want 3", b.Size())
	}
	sp.Free(b)
}
