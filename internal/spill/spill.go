// Package spill is the third memory level of the repository's chunk-and-
// buffer discipline: a disk-backed store of sorted megachunk runs. The
// paper's premise — stage what fits in the fast tier, stream the rest
// through it — extends one level down when the working set does not fit
// in DDR either (the out-of-core regime of Beyond-16GB stencils,
// arXiv:1709.02125): sorted runs that would otherwise accumulate in DDR
// are written to sequential run files and merged back as streams.
//
// The store deliberately mirrors internal/mem's budget discipline and
// internal/sched's ledger semantics one tier further out:
//
//   - every run file's bytes are charged against a configurable disk
//     budget before they are written, so a spill tier can never silently
//     exceed the capacity its owner leased for it;
//   - writers and readers move data in large sequential blocks through a
//     single reused buffer (the portable analog of O_DIRECT streaming:
//     the access pattern is what makes disks fast, not the flag);
//   - all IO consults an optional fault injector, so chaos plans can
//     exercise run-file write/read failures with the same retry/degrade
//     semantics internal/exec gives every other stage.
//
// A Store owns one temporary directory; Close removes it and every run in
// it, so no path through completion, cancellation, or fault-abort can
// leave run files behind.
package spill

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"knlmlm/internal/telemetry"
	"knlmlm/internal/wire"
)

// IOFaults injects run-file IO failures; fault.Injector satisfies it. A
// nil IOFaults never fails. The run index keys the decision so a seeded
// injector replays identically across retries of the same run.
type IOFaults interface {
	FailWrite(run int) bool
	FailRead(run int) bool
}

// BudgetError reports a write refused because it would push the store's
// footprint past its byte budget. It is the disk tier's TooLarge analog:
// retrying the identical write cannot succeed while the budget stands.
type BudgetError struct {
	Need, Budget int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("spill: run store needs %d bytes, budget is %d", e.Need, e.Budget)
}

// IOFaultError is the error surfaced by an injected run-file IO failure.
type IOFaultError struct {
	Op  string // "write" or "read"
	Run int
}

func (e *IOFaultError) Error() string {
	return fmt.Sprintf("spill: injected %s fault on run %d", e.Op, e.Run)
}

// ErrClosed is returned by store operations after Close.
var ErrClosed = errors.New("spill: store closed")

// Config describes a Store. The zero value is usable: runs land in a
// fresh directory under the OS temp dir with a 1 MiB IO buffer and no
// byte budget.
type Config struct {
	// Dir is the parent directory the store's private temp dir is created
	// in; empty selects os.TempDir().
	Dir string
	// MaxBytes caps the store's on-disk footprint; writes past it fail
	// with a BudgetError. Zero means unbounded.
	MaxBytes int64
	// Faults, when non-nil, injects write/read failures (chaos testing).
	Faults IOFaults
	// Registry, when non-nil, receives the spill_* metric families.
	Registry *telemetry.Registry

	// bufBytes is the writer/reader IO buffer size; sequential block IO
	// at this granularity is the store's whole performance story. Zero
	// selects 1 MiB; tests set odd sizes.
	bufBytes int
}

// Store is a collection of run files in one private temp directory. It is
// safe for concurrent use; individual RunWriters/RunReaders are not (each
// belongs to one goroutine at a time, like any file handle).
type Store struct {
	cfg Config
	dir string

	mu        sync.Mutex
	closed    bool
	footprint int64            // bytes charged to live runs
	runs      map[int]*runMeta // live runs by id
	// readers counts open RunReaders; removePending marks a Close that
	// arrived while readers were active, deferring the directory removal
	// to the last reader's Close so no reader ever races a RemoveAll.
	readers       int
	removePending bool

	// jmu serializes appends to the manifest journal (see manifest.go);
	// manifest is nil when the journal could not be created (the store
	// works, it just leaves no crash-recovery breadcrumbs).
	jmu      sync.Mutex
	manifest *os.File

	m storeMetrics
}

type runMeta struct {
	path  string
	elems int64
	bytes int64
}

// NewStore creates a store with a fresh private directory.
func NewStore(cfg Config) (*Store, error) {
	if cfg.bufBytes <= 0 {
		cfg.bufBytes = 1 << 20
	}
	if cfg.MaxBytes < 0 {
		return nil, fmt.Errorf("spill: negative byte budget %d", cfg.MaxBytes)
	}
	dir, err := os.MkdirTemp(cfg.Dir, "spillruns-")
	if err != nil {
		return nil, fmt.Errorf("spill: create run dir: %w", err)
	}
	s := &Store{cfg: cfg, dir: dir, runs: map[int]*runMeta{}}
	// The manifest journal is advisory (recovery breadcrumbs for a
	// crashed owner); a store that cannot journal still stores.
	if f, err := os.OpenFile(filepath.Join(dir, ManifestName),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
		s.manifest = f
	}
	s.m.init(cfg.Registry)
	s.m.budget.Set(float64(cfg.MaxBytes))
	return s, nil
}

// Dir reports the store's private run directory.
func (s *Store) Dir() string { return s.dir }

// BudgetBytes reports the configured disk budget (0 = uncapped).
func (s *Store) BudgetBytes() int64 { return s.cfg.MaxBytes }

// FootprintBytes reports the bytes currently charged to live runs.
func (s *Store) FootprintBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.footprint
}

// LiveRuns reports the number of run files currently on disk.
func (s *Store) LiveRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// RunElems reports the element count of a live run (0 for unknown ids).
func (s *Store) RunElems(id int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runs[id]; ok {
		return r.elems
	}
	return 0
}

// reserve charges n bytes against the budget, failing loudly past it.
func (s *Store) reserve(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.cfg.MaxBytes > 0 && s.footprint+n > s.cfg.MaxBytes {
		s.m.budgetRefusals.Add(1)
		return &BudgetError{Need: s.footprint + n, Budget: s.cfg.MaxBytes}
	}
	s.footprint += n
	s.m.footprint.Set(float64(s.footprint))
	return nil
}

// credit returns n bytes to the budget (run removed or writer aborted).
func (s *Store) credit(n int64) {
	s.mu.Lock()
	if s.footprint >= n {
		s.footprint -= n
	} else {
		s.footprint = 0
	}
	s.m.footprint.Set(float64(s.footprint))
	s.mu.Unlock()
}

// runPath names run id's file.
func (s *Store) runPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("run-%06d.bin", id))
}

// CreateRun opens a writer for run id, replacing any previous run with
// the same id (a retried copy-out attempt re-spills from scratch; the
// half-written file from the failed attempt must not survive it).
func (s *Store) CreateRun(id int) (*RunWriter, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	prev := s.runs[id]
	delete(s.runs, id)
	s.m.liveRuns.Set(float64(len(s.runs)))
	s.mu.Unlock()
	if prev != nil {
		s.credit(prev.bytes)
		_ = os.Remove(prev.path)
		s.m.runsDeleted.Add(1)
	}

	f, err := os.Create(s.runPath(id))
	if err != nil {
		return nil, fmt.Errorf("spill: create run %d: %w", id, err)
	}
	s.journal("create %d", id)
	s.m.runsCreated.Add(1)
	return &RunWriter{
		s:   s,
		id:  id,
		f:   f,
		buf: make([]byte, 0, s.cfg.bufBytes),
	}, nil
}

// RemoveRun deletes run id's file and credits its bytes back to the
// budget. Unknown ids are a no-op.
func (s *Store) RemoveRun(id int) {
	s.mu.Lock()
	r, ok := s.runs[id]
	delete(s.runs, id)
	s.m.liveRuns.Set(float64(len(s.runs)))
	s.mu.Unlock()
	if !ok {
		return
	}
	s.credit(r.bytes)
	_ = os.Remove(r.path)
	s.journal("remove %d", id)
	s.m.runsDeleted.Add(1)
}

// OpenRun opens a sequential reader over a completed run.
func (s *Store) OpenRun(id int) (*RunReader, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("spill: unknown run %d", id)
	}
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("spill: open run %d: %w", id, err)
	}
	s.mu.Lock()
	if s.closed {
		// Close won the race between the check above and the open.
		s.mu.Unlock()
		f.Close()
		return nil, ErrClosed
	}
	s.readers++
	s.mu.Unlock()
	return &RunReader{
		s:      s,
		id:     id,
		f:      f,
		remain: r.elems,
		buf:    make([]byte, s.cfg.bufBytes),
	}, nil
}

// Close deletes every run file and the store's directory. Further store
// operations fail with ErrClosed, including Fill on already-open
// readers (typed, fail-fast — a reader never observes files vanishing
// under it). If readers are open when Close arrives, the directory
// removal is deferred to the last reader's Close; Close itself returns
// immediately. Close is idempotent: the second and later calls return
// nil and do nothing.
func (s *Store) Close() error {
	s.jmu.Lock()
	if s.manifest != nil {
		s.manifest.Close()
		s.manifest = nil
	}
	s.jmu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	n := len(s.runs)
	s.runs = map[int]*runMeta{}
	s.footprint = 0
	s.m.liveRuns.Set(0)
	s.m.footprint.Set(0)
	defer s.m.runsDeleted.Add(int64(n))
	if s.readers > 0 {
		s.removePending = true
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	return os.RemoveAll(s.dir)
}

// Stats is a point-in-time snapshot of the store's IO counters.
type Stats struct {
	RunsCreated, RunsDeleted  int64
	BytesWritten, BytesRead   int64
	WriteFaults, ReadFaults   int64
	BudgetRefusals, LiveBytes int64
}

// Stats reports the store's traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	live := s.footprint
	s.mu.Unlock()
	return Stats{
		RunsCreated:    s.m.runsCreated.Value(),
		RunsDeleted:    s.m.runsDeleted.Value(),
		BytesWritten:   s.m.bytesWritten.Value(),
		BytesRead:      s.m.bytesRead.Value(),
		WriteFaults:    s.m.writeFaults.Value(),
		ReadFaults:     s.m.readFaults.Value(),
		BudgetRefusals: s.m.budgetRefusals.Value(),
		LiveBytes:      live,
	}
}

// RunWriter appends int64 keys to one run file through a large sequential
// buffer. Not safe for concurrent use.
type RunWriter struct {
	s     *Store
	id    int
	f     *os.File
	buf   []byte
	elems int64
	bytes int64
	err   error
}

// Append writes the keys to the run. The bytes are charged against the
// store's budget before they touch the disk; an injected write fault or a
// budget refusal fails the whole append (the caller's retry re-creates
// the run, so a half-charged append cannot leak).
func (w *RunWriter) Append(keys []int64) error {
	if w.err != nil {
		return w.err
	}
	if w.s.cfg.Faults != nil && w.s.cfg.Faults.FailWrite(w.id) {
		w.s.m.writeFaults.Add(1)
		w.err = &IOFaultError{Op: "write", Run: w.id}
		return w.err
	}
	n := int64(len(keys)) * 8
	if err := w.s.reserve(n); err != nil {
		w.err = err
		return err
	}
	w.bytes += n
	count := int64(len(keys))
	// Run files share the wire format's byte layout, so the hot loop is a
	// bulk conversion (a memmove on little-endian builds) instead of a
	// per-element encode: buffer-sized chunks in, flush when full.
	for len(keys) > 0 {
		take := len(keys)
		if room := (w.s.cfg.bufBytes - len(w.buf) + 7) / 8; take > room {
			take = room
		}
		w.buf = wire.AppendInt64s(w.buf, keys[:take])
		keys = keys[take:]
		if len(w.buf) >= w.s.cfg.bufBytes {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	w.elems += count
	return nil
}

func (w *RunWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("spill: write run %d: %w", w.id, err)
		return w.err
	}
	w.s.m.bytesWritten.Add(int64(len(w.buf)))
	w.buf = w.buf[:0]
	return nil
}

// Elems reports the elements appended so far.
func (w *RunWriter) Elems() int64 { return w.elems }

// Close flushes and seals the run, registering it as live and readable.
// A writer closed after an error (or whose flush fails) deletes its file
// and credits its bytes back instead of registering a corrupt run.
func (w *RunWriter) Close() error {
	if w.f == nil {
		return w.err
	}
	if w.err == nil {
		w.err = w.flush()
	}
	ferr := w.f.Close()
	f := w.f
	w.f = nil
	if w.err == nil && ferr != nil {
		w.err = fmt.Errorf("spill: close run %d: %w", w.id, ferr)
	}
	if w.err != nil {
		_ = os.Remove(f.Name())
		w.s.credit(w.bytes)
		return w.err
	}
	w.s.mu.Lock()
	if w.s.closed {
		w.s.mu.Unlock()
		_ = os.Remove(f.Name())
		w.s.credit(w.bytes)
		return ErrClosed
	}
	w.s.runs[w.id] = &runMeta{path: f.Name(), elems: w.elems, bytes: w.bytes}
	w.s.m.liveRuns.Set(float64(len(w.s.runs)))
	w.s.mu.Unlock()
	w.s.journal("seal %d %d %d", w.id, w.elems, w.bytes)
	return nil
}

// RunReader streams a run's keys back in sequential blocks. Not safe for
// concurrent use.
type RunReader struct {
	s      *Store
	id     int
	f      *os.File
	remain int64
	buf    []byte
	have   int // valid bytes in buf
	pos    int // consumed bytes in buf
}

// Fill decodes up to len(dst) keys into dst and reports how many were
// written. At end of run it returns (0, io.EOF). An injected read fault
// consumes nothing, so a retried Fill resumes exactly where it left off.
func (r *RunReader) Fill(dst []int64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if r.remain == 0 && r.have == r.pos {
		return 0, io.EOF
	}
	r.s.mu.Lock()
	closed := r.s.closed
	r.s.mu.Unlock()
	if closed {
		// The store closed under this reader: fail fast with the typed
		// error instead of half-reading a run whose deletion is pending.
		return 0, ErrClosed
	}
	if r.s.cfg.Faults != nil && r.s.cfg.Faults.FailRead(r.id) {
		r.s.m.readFaults.Add(1)
		return 0, &IOFaultError{Op: "read", Run: r.id}
	}
	n := 0
	for n < len(dst) {
		if r.have-r.pos < 8 {
			if r.remain == 0 {
				break
			}
			if err := r.refill(); err != nil {
				if n > 0 && err == io.EOF {
					break
				}
				return n, err
			}
			continue
		}
		// Bulk-decode every whole key the buffer holds (a memmove on
		// little-endian builds) instead of one encoding/binary round per
		// element.
		take := (r.have - r.pos) / 8
		if rem := len(dst) - n; take > rem {
			take = rem
		}
		if int64(take) > r.remain {
			take = int(r.remain)
		}
		if take == 0 {
			break
		}
		wire.DecodeInt64s(dst[n:n+take], r.buf[r.pos:r.pos+take*8])
		r.pos += take * 8
		r.remain -= int64(take)
		n += take
	}
	if n == 0 {
		return 0, io.EOF
	}
	r.s.m.bytesRead.Add(int64(n) * 8)
	return n, nil
}

// refill pulls the next sequential block from the file, carrying over any
// partial key bytes at the buffer tail.
func (r *RunReader) refill() error {
	carry := r.have - r.pos
	if carry > 0 {
		copy(r.buf, r.buf[r.pos:r.have])
	}
	r.pos, r.have = 0, carry
	m, err := r.f.Read(r.buf[carry:])
	r.have += m
	if m > 0 {
		return nil
	}
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("spill: read run %d: %w", r.id, err)
	}
	return nil
}

// Close releases the reader's file handle. The run stays live; RemoveRun
// (or Store.Close) deletes it. The last reader to close after a deferred
// Store.Close performs the store's directory removal.
func (r *RunReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	s := r.s
	s.mu.Lock()
	s.readers--
	removeNow := s.removePending && s.readers == 0
	if removeNow {
		s.removePending = false
	}
	s.mu.Unlock()
	if removeNow {
		os.RemoveAll(s.dir)
	}
	return err
}

// storeMetrics is the spill_* metric family set; with a nil registry a
// private one keeps the hot paths branch-free.
type storeMetrics struct {
	runsCreated    *telemetry.Counter
	runsDeleted    *telemetry.Counter
	bytesWritten   *telemetry.Counter
	bytesRead      *telemetry.Counter
	writeFaults    *telemetry.Counter
	readFaults     *telemetry.Counter
	budgetRefusals *telemetry.Counter
	liveRuns       *telemetry.Gauge
	footprint      *telemetry.Gauge
	budget         *telemetry.Gauge
}

func (m *storeMetrics) init(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m.runsCreated = reg.Counter("spill_runs_created_total", "Spill run files created.", nil)
	m.runsDeleted = reg.Counter("spill_runs_deleted_total", "Spill run files deleted.", nil)
	m.bytesWritten = reg.Counter("spill_bytes_written_total", "Bytes written to spill run files.", nil)
	m.bytesRead = reg.Counter("spill_bytes_read_total", "Bytes read back from spill run files.", nil)
	m.writeFaults = reg.Counter("spill_io_faults_total", "Injected spill IO faults.", telemetry.Labels{"op": "write"})
	m.readFaults = reg.Counter("spill_io_faults_total", "Injected spill IO faults.", telemetry.Labels{"op": "read"})
	m.budgetRefusals = reg.Counter("spill_budget_refusals_total", "Writes refused by the disk byte budget.", nil)
	m.liveRuns = reg.Gauge("spill_live_runs", "Run files currently on disk.", nil)
	m.footprint = reg.Gauge("spill_disk_footprint_bytes", "Bytes currently charged to live spill runs.", nil)
	m.budget = reg.Gauge("spill_disk_budget_bytes", "Configured spill disk budget (0 = uncapped).", nil)
}
