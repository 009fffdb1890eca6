package spill

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"knlmlm/internal/telemetry"
)

// testSeed returns a deterministic default seed, overridable via
// SPILL_TEST_SEED for reproducing a logged failure.
func testSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("SPILL_TEST_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SPILL_TEST_SEED %q: %v", s, err)
		}
		seed = v
	}
	return seed
}

func mustStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	cfg.Dir = t.TempDir()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func writeRun(t *testing.T, s *Store, id int, keys []int64) {
	t.Helper()
	w, err := s.CreateRun(id)
	if err != nil {
		t.Fatalf("CreateRun(%d): %v", id, err)
	}
	if err := w.Append(keys); err != nil {
		t.Fatalf("Append(%d): %v", id, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close(%d): %v", id, err)
	}
}

func readRun(t *testing.T, s *Store, id, blockElems int) []int64 {
	t.Helper()
	r, err := s.OpenRun(id)
	if err != nil {
		t.Fatalf("OpenRun(%d): %v", id, err)
	}
	defer r.Close()
	var out []int64
	buf := make([]int64, blockElems)
	for {
		n, err := r.Fill(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Fill(%d): %v", id, err)
		}
	}
}

func TestRoundtripOddBlockSizes(t *testing.T) {
	seed := testSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("seed=%d", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	// A tiny, non-multiple-of-8 IO buffer forces partial-key carry-over in
	// the reader's refill path.
	s := mustStore(t, Config{bufBytes: 37})
	for id := 0; id < 4; id++ {
		n := 1 + rng.Intn(500)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63() - rng.Int63()
		}
		writeRun(t, s, id, keys)
		for _, block := range []int{1, 3, 64, n + 7} {
			got := readRun(t, s, id, block)
			if len(got) != n {
				t.Fatalf("run %d block %d: got %d elems, want %d", id, block, len(got), n)
			}
			for i := range keys {
				if got[i] != keys[i] {
					t.Fatalf("run %d block %d: elem %d = %d, want %d", id, block, i, got[i], keys[i])
				}
			}
		}
		if e := s.RunElems(id); e != int64(n) {
			t.Fatalf("RunElems(%d) = %d, want %d", id, e, n)
		}
	}
}

func TestBudgetRefusalAndCredit(t *testing.T) {
	s := mustStore(t, Config{MaxBytes: 64 * 8})
	writeRun(t, s, 0, make([]int64, 64))
	w, err := s.CreateRun(1)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	err = w.Append([]int64{1})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Append over budget: got %v, want BudgetError", err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after failed append should report the error")
	}
	if got := s.FootprintBytes(); got != 64*8 {
		t.Fatalf("footprint after refused writer = %d, want %d", got, 64*8)
	}
	// Removing run 0 frees the budget; a fresh run now fits.
	s.RemoveRun(0)
	if got := s.FootprintBytes(); got != 0 {
		t.Fatalf("footprint after remove = %d, want 0", got)
	}
	writeRun(t, s, 2, make([]int64, 64))
	if st := s.Stats(); st.BudgetRefusals != 1 {
		t.Fatalf("BudgetRefusals = %d, want 1", st.BudgetRefusals)
	}
}

func TestCreateRunReplacesPrevious(t *testing.T) {
	s := mustStore(t, Config{MaxBytes: 100 * 8})
	writeRun(t, s, 0, make([]int64, 90))
	// A retried spill of the same run must reclaim the first attempt's
	// bytes or this second write would blow the budget.
	writeRun(t, s, 0, []int64{5, 6, 7})
	got := readRun(t, s, 0, 8)
	if len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Fatalf("replaced run contents = %v", got)
	}
	if s.LiveRuns() != 1 {
		t.Fatalf("LiveRuns = %d, want 1", s.LiveRuns())
	}
}

func TestCloseRemovesDirectory(t *testing.T) {
	parent := t.TempDir()
	s, err := NewStore(Config{Dir: parent})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	writeRun(t, s, 0, []int64{1, 2, 3})
	dir := s.Dir()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("store dir %s survived Close (stat err %v)", dir, err)
	}
	if _, err := s.CreateRun(9); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateRun after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// flakyIO fails the first write and first read of every run, like a
// transient device hiccup the caller's retry should absorb.
type flakyIO struct{ wrote, read map[int]bool }

func (f *flakyIO) FailWrite(run int) bool {
	if f.wrote[run] {
		return false
	}
	f.wrote[run] = true
	return true
}

func (f *flakyIO) FailRead(run int) bool {
	if f.read[run] {
		return false
	}
	f.read[run] = true
	return true
}

func TestInjectedFaultsAndRetry(t *testing.T) {
	fi := &flakyIO{wrote: map[int]bool{}, read: map[int]bool{}}
	s := mustStore(t, Config{Faults: fi})
	keys := []int64{3, 1, 4, 1, 5}

	w, err := s.CreateRun(0)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	err = w.Append(keys)
	var fe *IOFaultError
	if !errors.As(err, &fe) || fe.Op != "write" {
		t.Fatalf("first Append = %v, want write IOFaultError", err)
	}
	_ = w.Close()
	if got := s.FootprintBytes(); got != 0 {
		t.Fatalf("footprint after faulted writer = %d, want 0", got)
	}
	// Retry re-creates the run; the injector has already hit it once.
	writeRun(t, s, 0, keys)

	r, err := s.OpenRun(0)
	if err != nil {
		t.Fatalf("OpenRun: %v", err)
	}
	defer r.Close()
	buf := make([]int64, 2)
	if _, err := r.Fill(buf); !errors.As(err, &fe) || fe.Op != "read" {
		t.Fatalf("first Fill = %v, want read IOFaultError", err)
	}
	// A faulted Fill consumes nothing: the retry streams the full run.
	var out []int64
	for {
		n, err := r.Fill(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Fill retry: %v", err)
		}
	}
	if len(out) != len(keys) {
		t.Fatalf("got %d elems after fault retry, want %d", len(out), len(keys))
	}
	for i := range keys {
		if out[i] != keys[i] {
			t.Fatalf("elem %d = %d, want %d", i, out[i], keys[i])
		}
	}
	st := s.Stats()
	if st.WriteFaults != 1 || st.ReadFaults != 1 {
		t.Fatalf("fault counters = %d/%d, want 1/1", st.WriteFaults, st.ReadFaults)
	}
}

func TestMetricsPublished(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustStore(t, Config{Registry: reg, MaxBytes: 1 << 20})
	writeRun(t, s, 0, make([]int64, 128))
	_ = readRun(t, s, 0, 32)
	st := s.Stats()
	if st.RunsCreated != 1 || st.BytesWritten != 128*8 || st.BytesRead != 128*8 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LiveBytes != 128*8 {
		t.Fatalf("LiveBytes = %d, want %d", st.LiveBytes, 128*8)
	}
}
