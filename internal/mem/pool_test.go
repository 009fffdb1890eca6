package mem

import (
	"sync"
	"testing"

	"knlmlm/internal/race"
)

func TestSlicePoolReuse(t *testing.T) {
	p := NewSlicePool()
	a := p.Get(1000)
	if len(a) != 1000 || cap(a) != 1024 {
		t.Fatalf("Get(1000): len=%d cap=%d, want 1000/1024", len(a), cap(a))
	}
	a[0], a[999] = 7, 9
	p.Put(a)
	b := p.Get(900) // same class (2^10), must reuse a's backing array
	if cap(b) != 1024 {
		t.Fatalf("Get(900) after Put: cap=%d, want 1024", cap(b))
	}
	if len(b) != 900 {
		t.Fatalf("Get(900): len=%d", len(b))
	}
	if &b[:1024][1023] != &a[:1024][1023] {
		t.Error("Get did not reuse the pooled backing array")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 || st.Drops != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSlicePoolClassSeparation(t *testing.T) {
	p := NewSlicePool()
	small := p.Get(10)
	p.Put(small)
	big := p.Get(5000) // class 2^13, must not get the 2^4 slice
	if cap(big) < 5000 {
		t.Fatalf("cap=%d too small", cap(big))
	}
	if p.Stats().Hits != 0 {
		t.Error("cross-class hit")
	}
}

func TestSlicePoolForeignSliceDropped(t *testing.T) {
	p := NewSlicePool()
	p.Put(make([]int64, 0, 1000)) // not a power-of-two capacity
	if got := p.FreeSlices(); got != 0 {
		t.Errorf("foreign slice retained: %d free", got)
	}
	if st := p.Stats(); st.Drops != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSlicePoolDepthBounded(t *testing.T) {
	p := NewSlicePool()
	var held [][]int64
	for i := 0; i < classDepth+5; i++ {
		held = append(held, p.Get(64))
	}
	for _, s := range held {
		p.Put(s)
	}
	if got := p.FreeSlices(); got != classDepth {
		t.Errorf("free slices = %d, want %d", got, classDepth)
	}
}

func TestSlicePoolEdgeSizes(t *testing.T) {
	p := NewSlicePool()
	if p.Get(0) != nil {
		t.Error("Get(0) should be nil")
	}
	p.Put(nil) // no-op
	one := p.Get(1)
	if len(one) != 1 || cap(one) != 1 {
		t.Errorf("Get(1): len=%d cap=%d", len(one), cap(one))
	}
	p.Put(one)
	if p.Get(1); p.Stats().Hits != 1 {
		t.Error("exact power-of-two size not recycled")
	}
	// Exact powers of two map to their own size, not the next class up.
	s := p.Get(1024)
	if cap(s) != 1024 {
		t.Errorf("Get(1024): cap=%d", cap(s))
	}
}

func TestSlicePoolWarm(t *testing.T) {
	p := NewSlicePool()
	p.Warm(100, 100, 5000)
	if got := p.FreeSlices(); got != 3 {
		t.Fatalf("after Warm: %d free slices, want 3", got)
	}
	before := p.Stats()
	p.Get(100)
	p.Get(77) // same class as 100
	p.Get(4097)
	if st := p.Stats(); st.Hits-before.Hits != st.Gets-before.Gets {
		t.Errorf("warmed gets missed: %+v", st)
	}
}

func TestSlicePoolAllocationFreeSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	p := NewSlicePool()
	p.Warm(1 << 16)
	allocs := testing.AllocsPerRun(100, func() {
		s := p.Get(1 << 16)
		p.Put(s)
	})
	if allocs != 0 {
		t.Errorf("steady-state Get/Put allocates %.1f times per cycle", allocs)
	}
}

func TestSlicePoolBudgetRefusesPastCap(t *testing.T) {
	// Budget covers exactly one 2^10 class slice (8 KiB).
	p := NewSlicePoolBudget(8 * 1024)
	a := p.Get(1000)
	if a == nil {
		t.Fatal("first Get within budget refused")
	}
	if got := p.FootprintBytes(); got != 8*1024 {
		t.Fatalf("footprint = %d, want %d", got, 8*1024)
	}
	if b := p.Get(1000); b != nil {
		t.Fatal("Get past the budget should return nil")
	}
	if st := p.Stats(); st.Refusals != 1 {
		t.Errorf("stats = %+v, want 1 refusal", st)
	}
	// Returning the slice does not shrink the footprint (the freelist
	// still pins it) but makes the class servable again without growth.
	p.Put(a)
	if got := p.FootprintBytes(); got != 8*1024 {
		t.Fatalf("footprint after Put = %d, want %d", got, 8*1024)
	}
	if c := p.Get(800); c == nil {
		t.Fatal("freelist hit must not be budget-refused")
	}
}

func TestSlicePoolBudgetDropReleasesFootprint(t *testing.T) {
	const slice = 8 * 16 // one class-4 slice
	p := NewSlicePoolBudget((classDepth + 1) * slice)
	var held [][]int64
	for i := 0; i < classDepth+1; i++ {
		s := p.Get(16)
		if s == nil {
			t.Fatalf("Get %d refused within budget", i)
		}
		held = append(held, s)
	}
	if p.Get(16) != nil {
		t.Fatal("Get past budget should refuse")
	}
	for _, s := range held {
		p.Put(s)
	}
	// classDepth slices were retained; the extra Put dropped, and the
	// dropped bytes left the budget, making room to allocate again.
	if got, want := p.FootprintBytes(), int64(classDepth*slice); got != want {
		t.Fatalf("footprint after drop = %d, want %d", got, want)
	}
	for i := 0; i < classDepth+1; i++ { // classDepth hits + 1 fresh alloc
		if p.Get(16) == nil {
			t.Fatalf("Get %d refused after drop freed budget", i)
		}
	}
	if p.Get(16) != nil {
		t.Fatal("budget must cap growth again once re-filled")
	}
}

func TestSlicePoolBudgetForeignPutClamps(t *testing.T) {
	p := NewSlicePoolBudget(1 << 20)
	// A pool-shaped slice the pool never allocated: fill the class so the
	// Put drops it; the clamp must keep the footprint non-negative.
	for i := 0; i < classDepth; i++ {
		p.Put(make([]int64, 0, 64))
	}
	p.Put(make([]int64, 0, 64))
	if got := p.FootprintBytes(); got != 0 {
		t.Fatalf("foreign drops drove footprint to %d", got)
	}
}

func TestSlicePoolZeroBudgetUncapped(t *testing.T) {
	p := NewSlicePool()
	for i := 0; i < 50; i++ {
		if p.Get(1<<12) == nil {
			t.Fatal("uncapped pool refused a Get")
		}
	}
}

func TestSlicePoolConcurrent(t *testing.T) {
	p := NewSlicePool()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := p.Get(100 + w*100)
				for j := range s {
					s[j] = int64(w)
				}
				p.Put(s)
			}
		}(w)
	}
	wg.Wait()
	if st := p.Stats(); st.Gets != 1600 || st.Puts != 1600 {
		t.Errorf("stats = %+v", st)
	}
}
