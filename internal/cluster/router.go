package cluster

import (
	"knlmlm/internal/edge"
	"knlmlm/internal/model"
	"knlmlm/internal/units"
)

// Bandwidth-aware routing: each backend's weight is the service rate the
// paper's Equation 1-5 model predicts from that node's own polled
// constants — the per-thread copy and compute rates it publishes and its
// thread budget — degraded by the node's live overload state (brownout level,
// queue depth). A node that is browned out to level 2 or queueing deeply
// gets proportionally smaller key ranges, which is the distributed
// restatement of the paper's thesis: provision work to match measured
// bandwidth, don't split evenly and hope.

// nodeRate solves the model for one backend and reports its predicted
// steady-state throughput in bytes/sec. The node's DDR tier is its copy
// pool's aggregate reach, its MCDRAM tier its compute pool's, and the
// optimal symmetric pool split over the node's thread budget prices the
// pipeline. Dataset size cancels out of a rate, so a nominal 1 GiB is
// used.
func nodeRate(c edge.Capacity) float64 {
	threads := c.Threads
	if threads < 3 {
		threads = 3
	}
	sCopy := units.BytesPerSec(c.EWMACopyBps)
	sComp := units.BytesPerSec(c.EWMACompBps)
	if sCopy <= 0 || sComp <= 0 {
		return 0
	}
	p := model.Params{
		BCopy:     units.Bytes(1 << 30),
		DDRMax:    sCopy * units.BytesPerSec(threads),
		MCDRAMMax: sComp * units.BytesPerSec(threads),
		SCopy:     sCopy,
		SComp:     sComp,
	}
	best := p.Optimal(threads, (threads-1)/2, 1)
	if best.TTotal <= 0 {
		return 0
	}
	return float64(p.BCopy) / float64(best.TTotal)
}

// backendWeight prices one backend for the splitter quantiles. The model
// rate is scaled by the node's overload state:
//
//   - brownout divides by (1 + level): a shed-spill node takes half
//     share, a critical-only node a third (the ladder has three levels,
//     0 to 2) — mirroring how the brownout controller itself sheds work
//     classes stepwise;
//   - queue depth divides by (1 + depth/4): four queued jobs halve the
//     share, so backlog drains instead of compounds;
//   - zero lease headroom floors the weight at a tenth: the node can
//     still take work (the scheduler queues it) but new bytes should
//     overwhelmingly go where staging capacity is free.
//
// A down backend weighs zero.
func backendWeight(up bool, c edge.Capacity) float64 {
	if !up {
		return 0
	}
	w := nodeRate(c)
	if w <= 0 {
		return 0
	}
	w /= float64(1 + c.BrownoutLevel)
	w /= 1 + float64(c.QueueDepth)/4
	if c.HeadroomBytes <= 0 {
		w /= 10
	}
	return w
}

// weights snapshots a routing weight per backend. When every backend is
// down (startup before the first poll, or a full outage) it falls back
// to uniform weights so a job still scatters — the submit path will
// discover the truth per partition and retry.
func (c *Coordinator) weights() []float64 {
	out := make([]float64, len(c.backends))
	sum := 0.0
	for i, b := range c.backends {
		up, cap := b.snapshot()
		out[i] = backendWeight(up, cap)
		sum += out[i]
	}
	if sum <= 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	// Floor each live weight at 2% of the total so a struggling node keeps
	// a trickle of work: a weight is a model price of polled state, not a
	// measured rate, and a live node priced near zero would sit idle while
	// the others queue.
	floor := sum * 0.02
	for i := range out {
		if out[i] > 0 && out[i] < floor {
			out[i] = floor
		}
	}
	return out
}

// pickBackend chooses a failover target: the up backend with the highest
// current weight, excluding the given index (the one that just failed).
// Falls back to any backend — including the excluded one — when nothing
// is known to be up, so retries keep probing through a full outage.
func (c *Coordinator) pickBackend(exclude int) *backend {
	var best *backend
	bestW := -1.0
	for i, b := range c.backends {
		if i == exclude || !b.isUp() {
			continue
		}
		_, cap := b.snapshot()
		if w := backendWeight(true, cap); w > bestW {
			best, bestW = b, w
		}
	}
	if best != nil {
		return best
	}
	// Nothing up: round-robin over everything so probes spread.
	i := int(c.probeSeq.Add(1)) % len(c.backends)
	if i == exclude && len(c.backends) > 1 {
		i = (i + 1) % len(c.backends)
	}
	return c.backends[i]
}

// pollAll refreshes every backend's capacity snapshot concurrently.
func (c *Coordinator) pollAll() {
	done := make(chan struct{}, len(c.backends))
	for _, b := range c.backends {
		go func(b *backend) {
			b.poll(c.pollClient)
			done <- struct{}{}
		}(b)
	}
	for range c.backends {
		<-done
	}
}
