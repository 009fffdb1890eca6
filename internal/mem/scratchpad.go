package mem

import (
	"fmt"
	"sort"

	"knlmlm/internal/units"
)

// Scratchpad is a first-fit allocator over a simulated address range; it is
// the stand-in for memkind's hbw_malloc over flat-mode MCDRAM. The chunking
// pipeline allocates its (up to three) buffers from a Scratchpad, so the
// capacity accounting here is what limits chunk sizes exactly as the 16 GB
// MCDRAM limits them in the paper.
//
// Offsets are simulated addresses — no host memory is reserved. Allocation
// granularity is one byte; callers that care about alignment round their
// requests themselves.
type Scratchpad struct {
	capacity units.Bytes
	free     []span // sorted by offset, coalesced, non-empty
	inUse    units.Bytes
	peak     units.Bytes
	allocs   map[int64]units.Bytes // offset -> length of live blocks
}

type span struct {
	off, len int64
}

// Block is a live scratchpad allocation.
type Block struct {
	sp  *Scratchpad
	off int64
	len int64
}

// Size reports the block's length in bytes.
func (b Block) Size() units.Bytes { return units.Bytes(b.len) }

// NewScratchpad creates an allocator over capacity bytes.
func NewScratchpad(capacity units.Bytes) *Scratchpad {
	if capacity < 0 {
		panic(fmt.Sprintf("mem: negative scratchpad capacity %v", capacity))
	}
	sp := &Scratchpad{capacity: capacity, allocs: make(map[int64]units.Bytes)}
	if capacity > 0 {
		sp.free = []span{{0, int64(capacity)}}
	}
	return sp
}

// Capacity reports the total scratchpad size.
func (s *Scratchpad) Capacity() units.Bytes { return s.capacity }

// InUse reports the currently allocated bytes.
func (s *Scratchpad) InUse() units.Bytes { return s.inUse }

// Available reports the free bytes (possibly fragmented).
func (s *Scratchpad) Available() units.Bytes { return s.capacity - s.inUse }

// ErrOutOfMemory reports a failed scratchpad allocation, carrying enough
// context to explain whether capacity or fragmentation was the cause.
type ErrOutOfMemory struct {
	Requested   units.Bytes
	Available   units.Bytes
	LargestFree units.Bytes
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("mem: scratchpad exhausted: requested %v, available %v (largest contiguous %v)",
		e.Requested, e.Available, e.LargestFree)
}

// Alloc reserves n bytes with first-fit placement. Zero-byte requests are
// rejected: the pipeline never legitimately asks for an empty buffer, so an
// empty request indicates a sizing bug upstream.
func (s *Scratchpad) Alloc(n units.Bytes) (Block, error) {
	if n <= 0 {
		return Block{}, fmt.Errorf("mem: invalid allocation size %v", n)
	}
	need := int64(n)
	if units.Bytes(need) < n {
		need++ // round fractional byte counts up
	}
	for i, f := range s.free {
		if f.len < need {
			continue
		}
		b := Block{sp: s, off: f.off, len: need}
		if f.len == need {
			s.free = append(s.free[:i], s.free[i+1:]...)
		} else {
			s.free[i] = span{f.off + need, f.len - need}
		}
		s.inUse += units.Bytes(need)
		if s.inUse > s.peak {
			s.peak = s.inUse
		}
		s.allocs[b.off] = units.Bytes(need)
		return b, nil
	}
	var largest int64
	for _, f := range s.free {
		if f.len > largest {
			largest = f.len
		}
	}
	return Block{}, &ErrOutOfMemory{Requested: n, Available: s.Available(), LargestFree: units.Bytes(largest)}
}

// Free releases the block back to the scratchpad, coalescing with adjacent
// free spans. Freeing a block twice or freeing a foreign block panics: both
// are memory-safety bugs in the caller that must not be masked.
func (s *Scratchpad) Free(b Block) {
	if b.sp != s {
		panic("mem: Free of block from a different scratchpad")
	}
	if got, ok := s.allocs[b.off]; !ok || got != units.Bytes(b.len) {
		panic(fmt.Sprintf("mem: double free or corrupted block at offset %d", b.off))
	}
	delete(s.allocs, b.off)
	s.inUse -= units.Bytes(b.len)

	idx := sort.Search(len(s.free), func(i int) bool { return s.free[i].off > b.off })
	ns := span{b.off, b.len}
	// Coalesce with predecessor.
	if idx > 0 && s.free[idx-1].off+s.free[idx-1].len == ns.off {
		ns = span{s.free[idx-1].off, s.free[idx-1].len + ns.len}
		idx--
		s.free = append(s.free[:idx], s.free[idx+1:]...)
	}
	// Coalesce with successor.
	if idx < len(s.free) && ns.off+ns.len == s.free[idx].off {
		ns.len += s.free[idx].len
		s.free = append(s.free[:idx], s.free[idx+1:]...)
	}
	s.free = append(s.free, span{})
	copy(s.free[idx+1:], s.free[idx:])
	s.free[idx] = ns
}

// Reset releases every allocation, returning the scratchpad to its initial
// state but preserving the peak statistic.
func (s *Scratchpad) Reset() {
	s.inUse = 0
	s.allocs = make(map[int64]units.Bytes)
	s.free = nil
	if s.capacity > 0 {
		s.free = []span{{0, int64(s.capacity)}}
	}
}
