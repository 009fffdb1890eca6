// Package fault is a deterministic, seedable fault injector for the real
// execution stack. It plugs into exec.Stages the same way the telemetry
// Observer does — by wrapping the stage functions — and injects stage
// errors, stage panics and added latency; the spill tier and the cluster
// transport consult it for run-file IO failures and severed connections.
// MCDRAM exhaustion is not injected: a chaos rig's budget-capped staging
// pool (Rig.Pool) refuses for real.
//
// Injection decisions are pure functions of (seed, spec, stage, chunk,
// attempt): the injector hashes those coordinates instead of consuming a
// shared random stream, so a given seed produces the same fault schedule
// no matter how the pipeline's goroutines interleave. That is what makes
// chaos runs replayable: a failing seed is a reproducible bug report.
package fault

import (
	"fmt"
	"sync"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/telemetry"
)

// Kind is a fault category.
type Kind uint8

const (
	// Error makes the stage return an injected error.
	Error Kind = iota
	// Panic makes the stage panic with a PanicValue.
	Panic
	// Latency sleeps before the stage runs (the stage then succeeds).
	Latency
	// IOFail fails a spill run-file IO operation (consulted by the spill
	// tier via FailWrite/FailRead, not by stage wrapping). The spec's
	// Stage discriminates direction: StageCopyOut targets writes,
	// StageCopyIn targets reads.
	IOFail
	// ConnKill severs network connectivity to one backend of a
	// distributed tier (consulted by the cluster coordinator's transport
	// via FailDial/FailStream, not by stage wrapping). The spec's Stage
	// discriminates the failure mode: StageCopyIn refuses new dials to
	// the target backend, StageCopyOut cuts an in-flight response stream
	// mid-read — the two ways a SIGKILLed peer manifests to a client.
	// The Chunks list targets backend indices.
	ConnKill
	// NumKinds is the number of fault kinds.
	NumKinds
)

var kindNames = [NumKinds]string{"error", "panic", "latency", "io-fail", "conn-kill"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Spec is one fault source: a kind targeted at a stage, firing on a
// per-attempt probability or an explicit chunk list, with optional
// injection caps. A Spec with Rate 1 and a Chunks list is a precise
// scalpel; a Spec with a fractional Rate and caps is background noise.
type Spec struct {
	// Stage is the work stage targeted.
	Stage exec.Stage
	// Kind is the fault to inject.
	Kind Kind
	// Rate is the per-attempt firing probability in [0, 1].
	Rate float64
	// Chunks, when non-empty, restricts injection to these chunk
	// indices.
	Chunks []int
	// Latency is the added sleep for Latency faults.
	Latency time.Duration
	// MaxHits caps this spec's total injections (0 = unlimited). The
	// total is exact, but *which* sites consume it can vary with stage
	// interleaving; use PerChunkHits when survivability math matters.
	MaxHits int
	// PerChunkHits caps injections per (stage, chunk) (0 = unlimited).
	// Setting it below the pipeline's retry budget guarantees every
	// injected failure is eventually survivable.
	PerChunkHits int
}

// validate rejects malformed specs.
func (s Spec) validate() error {
	switch {
	case s.Rate < 0 || s.Rate > 1:
		return fmt.Errorf("fault: rate %v outside [0, 1]", s.Rate)
	case s.Kind >= NumKinds:
		return fmt.Errorf("fault: unknown kind %v", s.Kind)
	case s.Latency < 0:
		return fmt.Errorf("fault: negative latency %v", s.Latency)
	case s.MaxHits < 0 || s.PerChunkHits < 0:
		return fmt.Errorf("fault: negative injection cap")
	case s.Kind == Latency && s.Latency == 0:
		return fmt.Errorf("fault: latency fault with zero duration")
	}
	return nil
}

// InjectedError is the error returned by an injected Error fault.
type InjectedError struct {
	Stage exec.Stage
	Chunk int
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %v error at chunk %d", e.Stage, e.Chunk)
}

// PanicValue is the value thrown by an injected Panic fault; the exec
// layer recovers it into an exec.PanicError.
type PanicValue struct {
	Stage exec.Stage
	Chunk int
}

func (p PanicValue) String() string {
	return fmt.Sprintf("fault: injected %v panic at chunk %d", p.Stage, p.Chunk)
}

// Injector decides and applies faults. Safe for concurrent use; the
// decision for a given (spec, stage, chunk, attempt) does not depend on
// goroutine interleaving.
type Injector struct {
	seed  int64
	specs []Spec

	// Metrics, when non-nil, receives one RecordFault per injection.
	Metrics *telemetry.Resilience

	mu       sync.Mutex
	attempts map[siteKey]int // invocation count per (stage, chunk)
	ios      map[siteKey]int // spill IO attempt count per (direction, run)
	conns    map[siteKey]int // connection-attempt count per (mode, backend)
	perChunk map[specSiteKey]int
	perSpec  []int
	byKind   [NumKinds]int64
}

type siteKey struct {
	stage exec.Stage
	chunk int
}

type specSiteKey struct {
	spec  int
	stage exec.Stage
	chunk int
}

// NewInjector builds an injector from a seed and fault specs.
func NewInjector(seed int64, specs ...Spec) (*Injector, error) {
	for i, s := range specs {
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
	}
	return &Injector{
		seed:     seed,
		specs:    append([]Spec(nil), specs...),
		attempts: map[siteKey]int{},
		ios:      map[siteKey]int{},
		conns:    map[siteKey]int{},
		perChunk: map[specSiteKey]int{},
		perSpec:  make([]int, len(specs)),
	}, nil
}

// MustNewInjector is NewInjector, panicking on malformed specs (for
// tests and hard-coded plans).
func MustNewInjector(seed int64, specs ...Spec) *Injector {
	in, err := NewInjector(seed, specs...)
	if err != nil {
		panic(err)
	}
	return in
}

// splitmix64 finalizer: a cheap, well-mixed hash for decision making.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll maps the injection site to a uniform float in [0, 1).
func (in *Injector) roll(spec int, stage exec.Stage, chunk, attempt int) float64 {
	h := mix(uint64(in.seed) ^
		mix(uint64(spec)+1) ^
		mix(uint64(stage)+101) ^
		mix(uint64(chunk)+10007) ^
		mix(uint64(attempt)+1000003))
	return float64(h>>11) / float64(1<<53)
}

// fires decides whether spec s fires at the site, honoring chunk targets
// and caps. Caller holds in.mu.
func (in *Injector) fires(idx int, s Spec, stage exec.Stage, chunk, attempt int) bool {
	if len(s.Chunks) > 0 {
		ok := false
		for _, c := range s.Chunks {
			if c == chunk {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if s.MaxHits > 0 && in.perSpec[idx] >= s.MaxHits {
		return false
	}
	if s.PerChunkHits > 0 && in.perChunk[specSiteKey{idx, stage, chunk}] >= s.PerChunkHits {
		return false
	}
	return in.roll(idx, stage, chunk, attempt) < s.Rate
}

// record books one injection. Caller holds in.mu.
func (in *Injector) record(idx int, s Spec, stage exec.Stage, chunk int) {
	in.perSpec[idx]++
	in.perChunk[specSiteKey{idx, stage, chunk}]++
	in.byKind[s.Kind]++
}

// decide resolves the faults for one stage invocation: total added
// latency plus at most one failure (error or panic). Latency specs
// compose (sleeps add up); the first failure spec that fires wins, so
// per-chunk failure budgets across specs simply add.
func (in *Injector) decide(stage exec.Stage, chunk int) (sleep time.Duration, failure Kind, fail bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	site := siteKey{stage, chunk}
	in.attempts[site]++
	attempt := in.attempts[site]
	failure = NumKinds
	for idx, s := range in.specs {
		if s.Kind == IOFail || s.Kind == ConnKill || s.Stage != stage {
			continue
		}
		if s.Kind == Latency {
			if in.fires(idx, s, stage, chunk, attempt) {
				in.record(idx, s, stage, chunk)
				sleep += s.Latency
			}
			continue
		}
		if !fail && in.fires(idx, s, stage, chunk, attempt) {
			in.record(idx, s, stage, chunk)
			failure = s.Kind
			fail = true
		}
	}
	return sleep, failure, fail
}

// hit applies the decided faults for one stage invocation: sleeps, then
// errors or panics. A nil error means the wrapped stage should run.
func (in *Injector) hit(stage exec.Stage, chunk int) error {
	sleep, failure, fail := in.decide(stage, chunk)
	if sleep > 0 {
		in.observe(Latency, stage)
		time.Sleep(sleep)
	}
	if !fail {
		return nil
	}
	in.observe(failure, stage)
	if failure == Panic {
		panic(PanicValue{Stage: stage, Chunk: chunk})
	}
	return &InjectedError{Stage: stage, Chunk: chunk}
}

// observe forwards one injection to the metrics sink.
func (in *Injector) observe(k Kind, stage exec.Stage) {
	if in.Metrics != nil {
		in.Metrics.RecordFault(k.String(), stage.String())
	}
}

// failIO is the shared decision behind FailWrite/FailRead: one IOFail
// roll per (direction, run) attempt, so a seeded injector's spill fault
// schedule replays identically across retries.
func (in *Injector) failIO(dir exec.Stage, run int) bool {
	in.mu.Lock()
	site := siteKey{dir, run}
	in.ios[site]++
	attempt := in.ios[site]
	fired := false
	for idx, s := range in.specs {
		if s.Kind != IOFail || s.Stage != dir {
			continue
		}
		if in.fires(idx, s, dir, run, attempt) {
			in.record(idx, s, dir, run)
			fired = true
			break
		}
	}
	in.mu.Unlock()
	if fired {
		in.observe(IOFail, dir)
	}
	return fired
}

// failConn is the shared decision behind FailDial/FailStream: one
// ConnKill roll per (mode, backend) attempt, so a seeded injector's
// backend-death schedule replays identically however the coordinator's
// goroutines interleave.
func (in *Injector) failConn(mode exec.Stage, backend int) bool {
	in.mu.Lock()
	site := siteKey{mode, backend}
	in.conns[site]++
	attempt := in.conns[site]
	fired := false
	for idx, s := range in.specs {
		if s.Kind != ConnKill || s.Stage != mode {
			continue
		}
		if in.fires(idx, s, mode, backend, attempt) {
			in.record(idx, s, mode, backend)
			fired = true
			break
		}
	}
	in.mu.Unlock()
	if fired {
		in.observe(ConnKill, mode)
	}
	return fired
}

// FailDial reports whether a new connection (request) to the backend
// should be refused, consuming one ConnKill decision targeted at
// StageCopyIn. The backend index keys the decision, so a chaos plan can
// kill one node of a tier and leave its peers reachable.
func (in *Injector) FailDial(backend int) bool {
	return in.failConn(exec.StageCopyIn, backend)
}

// FailStream reports whether an in-flight response stream from the
// backend should be severed mid-read, consuming one ConnKill decision
// targeted at StageCopyOut — the mid-download connection loss a
// coordinator must survive by re-running the lost partition elsewhere.
func (in *Injector) FailStream(backend int) bool {
	return in.failConn(exec.StageCopyOut, backend)
}

// FailWrite reports whether a spill run-file write should fail, consuming
// one IOFail decision targeted at StageCopyOut (the direction data leaves
// the pipeline). The run index keys the decision. Satisfies
// spill.IOFaults.
func (in *Injector) FailWrite(run int) bool {
	return in.failIO(exec.StageCopyOut, run)
}

// FailRead reports whether a spill run-file read should fail, consuming
// one IOFail decision targeted at StageCopyIn (the direction data enters
// the merge). Satisfies spill.IOFaults.
func (in *Injector) FailRead(run int) bool {
	return in.failIO(exec.StageCopyIn, run)
}

// Wrap returns a stage set whose copy-in / compute / copy-out are
// preceded by the injector's fault decisions, mirroring how
// exec.Instrument layers counters. Wrap composes with Instrument and
// with an Observer: wrap first, instrument second, so injected latency
// shows up in spans and injected failures are charged like real ones.
func (in *Injector) Wrap(s exec.Stages) exec.Stages {
	out := s
	if s.CopyIn != nil {
		inner := s.CopyIn
		out.CopyIn = func(i int, dst []int64) error {
			if err := in.hit(exec.StageCopyIn, i); err != nil {
				return err
			}
			return inner(i, dst)
		}
	}
	if s.Compute != nil {
		inner := s.Compute
		out.Compute = func(i int, buf []int64) error {
			if err := in.hit(exec.StageCompute, i); err != nil {
				return err
			}
			return inner(i, buf)
		}
	}
	if s.CopyOut != nil {
		inner := s.CopyOut
		out.CopyOut = func(i int, src []int64) error {
			if err := in.hit(exec.StageCopyOut, i); err != nil {
				return err
			}
			return inner(i, src)
		}
	}
	return out
}

// Counts reports injections by kind.
func (in *Injector) Counts() [NumKinds]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.byKind
}

// Total reports all injections.
func (in *Injector) Total() int64 {
	var n int64
	for _, c := range in.Counts() {
		n += c
	}
	return n
}

// String summarizes the injection tally.
func (in *Injector) String() string {
	c := in.Counts()
	return fmt.Sprintf("faults{error:%d panic:%d latency:%d io-fail:%d conn-kill:%d}",
		c[Error], c[Panic], c[Latency], c[IOFail], c[ConnKill])
}
