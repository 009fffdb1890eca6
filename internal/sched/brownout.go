package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"knlmlm/internal/telemetry"
)

// BrownoutLevel is the scheduler's explicit degradation state. Instead
// of collapsing gradually (every queued job a little later, every
// deadline a little more missed), the scheduler sheds load in named,
// observable steps — each level trades a specific class of work for
// keeping the rest on time.
type BrownoutLevel int32

const (
	// BrownoutNormal: no degradation; every admissible job is accepted.
	BrownoutNormal BrownoutLevel = iota
	// BrownoutShedSpill: spill-class jobs — the largest, slowest, most
	// disk-hungry work — are rejected at admission and evicted from the
	// queue. Sheds the most seconds of backlog per job dropped.
	BrownoutShedSpill
	// BrownoutCritical: only jobs at or above the configured critical
	// priority are admitted; everything else is rejected at the door.
	BrownoutCritical
)

// String reports the wire name used by /healthz and /debug/overload.
func (l BrownoutLevel) String() string {
	switch l {
	case BrownoutNormal:
		return "normal"
	case BrownoutShedSpill:
		return "shed-spill"
	case BrownoutCritical:
		return "critical-only"
	}
	return "unknown"
}

// BrownoutConfig tunes the brownout controller. The zero value selects
// defaults derived from the scheduler's AgingSlack.
type BrownoutConfig struct {
	// RaiseQueueDelay is the queue-delay signal (EWMA of observed
	// dispatch waits, or current head-of-queue age, whichever is larger)
	// at which the controller steps one level up. Zero selects the
	// scheduler's AgingSlack — if jobs wait longer than the aging
	// horizon, the queue is past its design point.
	RaiseQueueDelay time.Duration
	// StepInterval is the minimum time between level changes, bounding
	// how fast the controller ramps. Zero selects 250ms.
	StepInterval time.Duration
	// CalmInterval is how long the signal must stay below a quarter of
	// RaiseQueueDelay (hysteresis: raise fast, lower slow) before a level
	// is stepped back down. Zero selects 1s.
	CalmInterval time.Duration
}

// criticalPriority is the minimum job priority admitted at
// BrownoutCritical: the default priority class 0 is shed at the highest
// level.
const criticalPriority = 1

func (c BrownoutConfig) norm(agingSlack time.Duration) BrownoutConfig {
	if c.RaiseQueueDelay <= 0 {
		c.RaiseQueueDelay = agingSlack
	}
	if c.StepInterval <= 0 {
		c.StepInterval = 250 * time.Millisecond
	}
	if c.CalmInterval <= 0 {
		c.CalmInterval = time.Second
	}
	return c
}

// brownoutAlpha is the queue-delay EWMA weight (matches the rate
// estimator's smoothing).
const brownoutAlpha = 0.3

// brownout is the controller: an EWMA over observed dispatch delays plus
// the live head-of-queue age drive a hysteretic level ladder. Level
// reads are a lock-free atomic so admission and dispatch gates stay
// branch-cheap.
type brownout struct {
	cfg   BrownoutConfig
	level atomic.Int32

	mu       sync.Mutex
	ewma     float64 // seconds
	haveEWMA bool
	lastStep time.Time
	lastHigh time.Time

	gauge           *telemetry.Gauge
	raised, lowered *telemetry.Counter
}

func newBrownout(cfg BrownoutConfig, agingSlack time.Duration, reg *telemetry.Registry) *brownout {
	b := &brownout{cfg: cfg.norm(agingSlack)}
	b.lastHigh = time.Now() // no step-down before the first CalmInterval elapses
	b.gauge = reg.Gauge("sched_brownout_level",
		"Current brownout degradation level (0=normal 1=shed-spill 2=critical-only).", nil)
	b.raised = reg.Counter("sched_brownout_transitions_total",
		"Brownout level transitions.", telemetry.Labels{"direction": "raise"})
	b.lowered = reg.Counter("sched_brownout_transitions_total",
		"Brownout level transitions.", telemetry.Labels{"direction": "lower"})
	return b
}

// Level reports the current degradation level (lock-free).
func (b *brownout) Level() BrownoutLevel { return BrownoutLevel(b.level.Load()) }

// observeDelay feeds one observed queue delay (a job's submit-to-start
// wait) into the EWMA signal.
func (b *brownout) observeDelay(d time.Duration) {
	b.mu.Lock()
	if !b.haveEWMA {
		b.ewma, b.haveEWMA = d.Seconds(), true
	} else {
		b.ewma = (1-brownoutAlpha)*b.ewma + brownoutAlpha*d.Seconds()
	}
	b.mu.Unlock()
}

// eval advances the level ladder. headAge is the current age of the
// queue head (zero for an empty queue); queueEmpty lets the signal decay
// once the storm has passed — an EWMA only fed by dispatches would
// otherwise stay high forever after the last overloaded dispatch.
func (b *brownout) eval(now time.Time, headAge time.Duration, queueEmpty bool) {
	b.mu.Lock()
	if queueEmpty && b.haveEWMA {
		b.ewma *= 0.5
	}
	sig := b.ewma
	if s := headAge.Seconds(); s > sig {
		sig = s
	}
	lvl := BrownoutLevel(b.level.Load())
	var raised, lowered bool
	switch {
	case sig >= b.cfg.RaiseQueueDelay.Seconds():
		b.lastHigh = now
		if lvl < BrownoutCritical && now.Sub(b.lastStep) >= b.cfg.StepInterval {
			lvl++
			b.level.Store(int32(lvl))
			b.lastStep = now
			raised = true
		}
	case sig > b.cfg.RaiseQueueDelay.Seconds()/4:
		// Between the thresholds: neither raise nor count toward calm.
		b.lastHigh = now
	default:
		if lvl > BrownoutNormal &&
			now.Sub(b.lastHigh) >= b.cfg.CalmInterval &&
			now.Sub(b.lastStep) >= b.cfg.StepInterval {
			lvl--
			b.level.Store(int32(lvl))
			b.lastStep = now
			lowered = true
		}
	}
	b.mu.Unlock()
	if raised {
		b.gauge.Set(float64(lvl))
		b.raised.Add(1)
	}
	if lowered {
		b.gauge.Set(float64(lvl))
		b.lowered.Add(1)
	}
}

// delayEWMA reports the smoothed queue-delay signal.
func (b *brownout) delayEWMA() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(b.ewma * float64(time.Second))
}
