package mem

import (
	"math/bits"
	"sync"
)

// SlicePool is a size-classed freelist of []int64 scratch buffers. It is
// the allocation-discipline half of the paper's flat-mode story: the real
// execution paths (exec pipeline buffers, megachunk sort scratch, the
// final-merge ping-pong buffer, the merge benchmark's compute scratch)
// all draw from one shared pool, so their steady state — the part of a
// run the memory-system comparison actually measures — performs no heap
// allocation at all. Without it, repeated runs measure the Go allocator
// as much as the memory hierarchy.
//
// Slices are binned by capacity into power-of-two classes. Get returns a
// slice of exactly the requested length whose capacity is the class size;
// Put recycles a slice into its class. Contents are NOT zeroed — every
// consumer overwrites its buffer before reading. The pool is safe for
// concurrent use; per-class depth is bounded so an unusually large run
// cannot pin unbounded memory.
type SlicePool struct {
	mu      sync.Mutex
	classes [maxClass + 1][][]int64
	stats   PoolStats
	// budget, when positive, caps the pool's footprint (see SetBudget).
	budget int64
	// footprint is the bytes of every pool-shaped slice this pool has
	// allocated and not yet dropped: freelist contents plus slices
	// currently handed out by Get. It is what the budget bounds.
	footprint int64
}

// maxClass bounds the size classes at 2^36 elements (512 GiB of int64),
// far beyond any host run; larger requests bypass the pool.
const maxClass = 36

// classDepth bounds how many free slices each class retains; extras are
// dropped for the GC. Ten covers the deepest simultaneous demand of the
// real paths (3 pipeline buffers + sort scratch + final-merge buffer)
// with headroom for chaos-retry buffer replacement.
const classDepth = 10

// PoolStats counts pool traffic, for tests and capacity reasoning.
type PoolStats struct {
	// Gets counts Get calls; Hits the subset served from a freelist.
	Gets, Hits int64
	// Puts counts Put calls; Drops the subset discarded because the
	// class was full or the slice was not pool-shaped.
	Puts, Drops int64
	// Refusals counts Gets denied because allocating would have pushed
	// the footprint past the budget (see SetBudget).
	Refusals int64
	// Forgets counts slices written off via Forget: handed out by Get but
	// abandoned by their consumer (never Put) and removed from the
	// footprint.
	Forgets int64
}

// Misses reports Gets that had to allocate.
func (s PoolStats) Misses() int64 { return s.Gets - s.Hits }

// NewSlicePool returns an empty pool with no byte budget.
func NewSlicePool() *SlicePool { return &SlicePool{} }

// NewSlicePoolBudget returns an empty pool capped at budget bytes.
func NewSlicePoolBudget(budget int64) *SlicePool {
	p := &SlicePool{}
	p.SetBudget(budget)
	return p
}

// SetBudget caps the pool's footprint — freelist bytes plus the bytes of
// slices handed out and not yet returned — at budget bytes (0 removes the
// cap). Past the cap, Get returns nil instead of allocating, so a caller
// doing its own MCDRAM lease accounting (internal/sched) cannot have that
// accounting silently exceeded by pool growth: demand beyond the budget
// is refused loudly rather than absorbed.
//
// Requests too large for any size class (beyond maxClass) bypass the pool
// and its budget; at sane budgets (well under 512 GiB) every request the
// budget could matter for is poolable.
func (p *SlicePool) SetBudget(budget int64) {
	p.mu.Lock()
	p.budget = budget
	p.mu.Unlock()
}

// BudgetBytes reports the configured footprint cap (0 = uncapped).
func (p *SlicePool) BudgetBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budget
}

// FootprintBytes reports the bytes currently pinned by the pool: freelist
// contents plus outstanding Get slices.
func (p *SlicePool) FootprintBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.footprint
}

// classBytes is the byte size of one class-c slice's backing array.
func classBytes(c int) int64 { return 8 << c }

// Pool is the process-wide shared pool the execution paths default to,
// so scratch buffers survive across runs, megachunks, and chaos retries.
var Pool = NewSlicePool()

// classFor reports the size class (log2 of the rounded-up capacity) for a
// request of n elements, and whether the request is poolable.
func classFor(n int) (int, bool) {
	if n <= 0 {
		return 0, false
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n); 0 for n == 1
	return c, c <= maxClass
}

// Get returns a slice of length n. When a free slice of n's size class is
// available it is reused (contents unspecified); otherwise a fresh slice
// with the class capacity is allocated. Get(0) returns nil. On a budgeted
// pool (SetBudget), a Get that would grow the footprint past the budget
// returns nil instead — callers owning a budget must check.
func (p *SlicePool) Get(n int) []int64 {
	c, ok := classFor(n)
	if !ok {
		if n <= 0 {
			return nil
		}
		return make([]int64, n)
	}
	p.mu.Lock()
	p.stats.Gets++
	if l := len(p.classes[c]); l > 0 {
		s := p.classes[c][l-1]
		p.classes[c][l-1] = nil
		p.classes[c] = p.classes[c][:l-1]
		p.stats.Hits++
		p.mu.Unlock()
		return s[:n]
	}
	if p.budget > 0 && p.footprint+classBytes(c) > p.budget {
		p.stats.Refusals++
		p.mu.Unlock()
		return nil
	}
	p.footprint += classBytes(c)
	p.mu.Unlock()
	return make([]int64, n, 1<<c)
}

// GetOrAlloc is Get for callers that must keep running when a budgeted
// pool refuses: the refusal (visible in the pool's stats) degrades to an
// unpooled allocation — the DDR analog of MCDRAM exhaustion. Its capacity
// is deliberately not a size class, so a later Put drops the slice rather
// than adopt into a freelist memory the budget accounting never saw. A
// nil pool always allocates.
func (p *SlicePool) GetOrAlloc(n int) []int64 {
	if p != nil {
		if s := p.Get(n); s != nil || n <= 0 {
			return s
		}
	}
	c := max(n, 2)
	if c&(c-1) == 0 {
		c++
	}
	return make([]int64, n, c)
}

// Put recycles s into its size class. Slices whose capacity is not an
// exact class size (i.e. that did not come from Get) are dropped rather
// than mislabeled, as are puts into a full class. Put(nil) is a no-op, as
// is any Put on a nil pool.
func (p *SlicePool) Put(s []int64) {
	if p == nil || cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s) - 1))
	if cap(s) != 1<<c || c > maxClass {
		p.mu.Lock()
		p.stats.Puts++
		p.stats.Drops++
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	p.stats.Puts++
	if len(p.classes[c]) >= classDepth {
		p.stats.Drops++
		// The dropped slice leaves the pool's custody for the GC, so it
		// stops counting against the budget (clamped: a pool-shaped slice
		// the pool never allocated must not drive the footprint negative).
		if b := classBytes(c); p.footprint >= b {
			p.footprint -= b
		} else {
			p.footprint = 0
		}
	} else {
		p.classes[c] = append(p.classes[c], s[:0])
	}
	p.mu.Unlock()
}

// Forget writes off a slice obtained from Get that will never be Put —
// typically because it was abandoned to a timed-out stage attempt whose
// goroutine may still be writing it, so returning it to a freelist would
// hand live memory to another consumer. Forget removes the slice's bytes
// from the footprint (so a budgeted pool does not ratchet toward
// permanent refusal as abandonments accumulate) without ever touching the
// slice itself. Slices that are not pool-shaped (did not come from Get)
// are ignored; Forget(nil) is a no-op, as is any Forget on a nil pool.
func (p *SlicePool) Forget(s []int64) {
	if p == nil || cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s) - 1))
	if cap(s) != 1<<c || c > maxClass {
		return
	}
	p.mu.Lock()
	p.stats.Forgets++
	// Clamped like Put's drop path: a pool-shaped slice this pool never
	// allocated must not drive the footprint negative.
	if b := classBytes(c); p.footprint >= b {
		p.footprint -= b
	} else {
		p.footprint = 0
	}
	p.mu.Unlock()
}

// Stats reports a snapshot of the pool's traffic counters.
func (p *SlicePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// FreeSlices reports the total slices currently held across classes.
func (p *SlicePool) FreeSlices() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.classes {
		n += len(c)
	}
	return n
}

// FreeBytes reports the bytes held on the freelists. At quiescence it
// equals FootprintBytes: every slice handed out was either Put or written
// off with Forget.
func (p *SlicePool) FreeBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for c, free := range p.classes {
		n += int64(len(free)) * classBytes(c)
	}
	return n
}

// Warm primes the pool so that a following sequence of Gets matching the
// given lengths is served entirely from freelists (used by tests and by
// drivers that want the first run as allocation-free as the steady state).
func (p *SlicePool) Warm(lengths ...int) {
	var held [][]int64
	for _, n := range lengths {
		held = append(held, p.Get(n))
	}
	for _, s := range held {
		p.Put(s)
	}
}
