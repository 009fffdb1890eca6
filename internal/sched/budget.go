package sched

import (
	"fmt"
	"sync"

	"knlmlm/internal/units"
)

// Budget is the scheduler's MCDRAM ledger: a fixed byte capacity from
// which concurrent jobs lease their sort-scratch footprint. It is the
// admission-control half of the paper's Section 3.2 provisioning story —
// where the single-run algorithm sizes its chunks against the whole 16 GB
// scratchpad, the service must split that scratchpad between tenants, and
// the ledger is what makes "total leased bytes never exceed the budget"
// an invariant rather than a hope.
//
// Leases are granted atomically (TryLease never over-commits) and
// released idempotently (a Lease released twice subtracts once), so the
// cancellation and failure paths cannot leak or double-free capacity.
type Budget struct {
	capacity units.Bytes

	mu        sync.Mutex
	leased    units.Bytes
	highWater units.Bytes
}

// NewBudget returns a ledger over capacity bytes.
func NewBudget(capacity units.Bytes) *Budget {
	if capacity <= 0 {
		panic(fmt.Sprintf("sched: budget capacity %v must be positive", capacity))
	}
	return &Budget{capacity: capacity}
}

// Lease is one granted reservation. The zero/nil Lease is inert.
type Lease struct {
	b        *Budget
	bytes    units.Bytes
	released bool
	mu       sync.Mutex
}

// TryLease reserves n bytes if the ledger has room, reporting whether the
// reservation was granted. n must be positive.
func (b *Budget) TryLease(n units.Bytes) (*Lease, bool) {
	if n <= 0 {
		panic(fmt.Sprintf("sched: lease size %v must be positive", n))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.leased+n > b.capacity {
		return nil, false
	}
	b.leased += n
	if b.leased > b.highWater {
		b.highWater = b.leased
	}
	return &Lease{b: b, bytes: n}, true
}

// Release returns the lease's bytes to the ledger. Safe to call more than
// once and on a nil lease; only the first call subtracts.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	done := l.released
	l.released = true
	l.mu.Unlock()
	if done {
		return
	}
	l.b.mu.Lock()
	l.b.leased -= l.bytes
	l.b.mu.Unlock()
}

// Bytes reports the lease size.
func (l *Lease) Bytes() units.Bytes {
	if l == nil {
		return 0
	}
	return l.bytes
}

// Capacity reports the ledger's total budget.
func (b *Budget) Capacity() units.Bytes { return b.capacity }

// Leased reports the bytes currently out on lease.
func (b *Budget) Leased() units.Bytes {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.leased
}

// HighWater reports the maximum simultaneous lease total ever observed.
func (b *Budget) HighWater() units.Bytes {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.highWater
}
