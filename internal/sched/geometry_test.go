package sched

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/psort"
	"knlmlm/internal/units"
	"knlmlm/internal/wire"
	"knlmlm/internal/workload"
)

const (
	ki = 1 << 10
	mi = 1 << 20
)

// stageMeter is a Config.Wrap that counts what a job's phase 1 moved: how
// many megachunks it ran and the bytes each stage saw (exec's counters).
// The job's run writes it before the job is done and the test reads it
// after, so it needs no lock.
type stageMeter struct {
	megachunks int
	bytes      *exec.Counters
}

func (m *stageMeter) wrap(s exec.Stages) exec.Stages {
	s, m.bytes = exec.Instrument(s, 16)
	m.megachunks = s.NumChunks
	return s
}

// finalMerges counts the whole-array compute spans of a finished job.
func finalMerges(j *Job) (n int) {
	for _, sp := range j.Spans() {
		if sp.Stage == exec.StageCompute && sp.Chunk == -1 {
			n++
		}
	}
	return n
}

// TestPlanShapes runs a job of every key type (f64 with NaNs and signed
// zeros among its keys) through the shapes the plan can take, 1Mi cells
// but for the small row, and checks each is what ran, and that the result
// is the bit-exact sorted permutation in every one:
//
//   - the default, under the benchmark node's 64 MiB budget: one megachunk
//     sorted where it lies, no byte through a copy stage, no final merge,
//     an 8 MiB lease (the scratch);
//   - the default at 1Ki cells: the same plan at the other end of the size
//     range, an 8 KiB lease, with no second class of job to fall into;
//   - the default under a 4 MiB budget, where the largest in-place
//     megachunk is 512Ki cells: two megachunks and a final merge;
//   - a spill job under the same 4 MiB: four megachunks of 256Ki cells,
//     half the largest, each sorted where it lies and copied out from there
//     to its run file (8 MiB through copy-out, none through copy-in), no
//     final merge in phase 1, and a 2 MiB lease: one scratch, no staging
//     buffer. Its result streams through the download merge.
//
// In every shape the job draws exactly its lease from the scheduler's
// pool, and the pool refuses nothing.
func TestPlanShapes(t *testing.T) {
	kinds := []struct {
		kind  wire.Kind
		input func(rng *rand.Rand, cells int) []int64
		check func(t *testing.T, got, input []int64)
	}{
		{wire.KindInt64, func(rng *rand.Rand, cells int) []int64 {
			return workload.Generate(workload.Random, cells, rng.Int63())
		}, func(t *testing.T, got, input []int64) {
			want := append([]int64(nil), input...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("key %d: %d, want %d", i, got[i], want[i])
				}
			}
		}},
		{wire.KindFloat64, f64Job, checkF64Sorted},
		{wire.KindRecord, func(rng *rand.Rand, cells int) []int64 { return recordCells(rng, cells/2) }, checkIndexedRecordsStable},
	}
	shapes := []struct {
		name       string
		n          int
		budget     units.Bytes
		spill      bool
		megachunks int
		copyOut    int64
		merges     int
		lease      int64
		flow       string
	}{
		{"default", mi, 64 * units.MiB, false, 1, 0, 0, 8 * mi, "in-place"},
		{"default-1Ki", ki, 64 * units.MiB, false, 1, 0, 0, 8 * ki, "in-place"},
		{"default-over-budget", mi, 4 * units.MiB, false, 2, 0, 1, 4 * mi, "in-place"},
		{"spill", mi, 4 * units.MiB, true, 4, 8 * mi, 0, 2 * mi, "spill"},
	}
	rng := rand.New(rand.NewSource(23))
	for _, sh := range shapes {
		for _, k := range kinds {
			t.Run(sh.name+"/"+k.kind.String(), func(t *testing.T) {
				meter := &stageMeter{}
				cfg := Config{MCDRAMBudget: sh.budget, Workers: 1}
				if sh.spill {
					// A 1Mi-cell job's DDR working set is 16 MiB.
					cfg.DDRBudget, cfg.DiskBudget, cfg.SpillDir = 8*units.MiB, 16*units.MiB, t.TempDir()
				}
				cfg.Wrap = meter.wrap
				s := newTestScheduler(t, cfg)
				n, input := sh.n, k.input(rng, sh.n)
				j, err := s.Submit(JobSpec{Data: append([]int64(nil), input...), KeyType: k.kind})
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				waitDone(t, j)
				if j.Spilled() != sh.spill {
					t.Fatalf("spilled %v, want %v", j.Spilled(), sh.spill)
				}
				if got := finalMerges(j); got != sh.merges {
					t.Errorf("%d final merges, want %d", got, sh.merges)
				}
				if fp, st := s.pool.FootprintBytes(), s.PoolStats(); fp != sh.lease || st.Refusals != 0 {
					t.Errorf("the job drew %d bytes from the pool with %d refusals, want its lease %d and none", fp, st.Refusals, sh.lease)
				}
				out := drainStream(t, j) // no int64 order asserted: f64 keys leave as IEEE bits
				k.check(t, out, input)

				if meter.megachunks != sh.megachunks {
					t.Errorf("ran %d megachunks, want %d", meter.megachunks, sh.megachunks)
				}
				if in, out := meter.bytes.CopyInBytes(), meter.bytes.CopyOutBytes(); in != 0 || out != sh.copyOut {
					t.Errorf("copy stages saw %d bytes in and %d out, want 0 and %d", in, out, sh.copyOut)
				}
				if got := meter.bytes.ComputeBytes(); got != int64(16*n) {
					t.Errorf("compute stage charged %d bytes, want %d", got, 16*n)
				}
				if got := j.LeaseBytes(); got != sh.lease {
					t.Errorf("lease %d bytes, want %d", got, sh.lease)
				}
				wantPlan := fmt.Sprintf("flow=%s megachunk=%d megachunks=%d lease=%d", sh.flow, n/sh.megachunks, sh.megachunks, sh.lease)
				if got := eventDetails(j, "plan"); len(got) != 1 || got[0] != wantPlan {
					t.Errorf("plan events %q, want %q", got, wantPlan)
				}
				if leased, fp, free := s.Budget().Leased(), s.pool.FootprintBytes(), s.pool.FreeBytes(); leased != 0 || fp != free {
					t.Errorf("after the job: %v leased, pool footprint %d with %d on its freelists", leased, fp, free)
				}
			})
		}
	}
}

// checkIndexedRecordsStable is checkRecordsStable in one pass, for records
// whose payload is their index in input (recordCells): keys never fall,
// payloads rise within a key, and every record is the input's record at its
// payload. Records of one key are then distinct because their payloads
// rise, and records of two keys because they name input records of
// different keys, so got is a permutation of input, in stable order.
func checkIndexedRecordsStable(t *testing.T, got, input []int64) {
	t.Helper()
	if len(got) != len(input) {
		t.Fatalf("got %d cells, want %d", len(got), len(input))
	}
	for i := 0; i < len(got); i += 2 {
		key, at := got[i], got[i+1]
		if at < 0 || 2*at >= int64(len(input)) || input[2*at] != key || input[2*at+1] != at {
			t.Fatalf("record %d: {%d %d} is not an input record", i/2, key, at)
		}
		if i > 0 && (key < got[i-2] || key == got[i-2] && at <= got[i-1]) {
			t.Fatalf("record %d: {%d %d} after {%d %d} is out of stable order", i/2, key, at, got[i-2], got[i-1])
		}
	}
}

// eventDetails reports the details of a job's trace events of one name.
func eventDetails(j *Job, name string) (details []string) {
	for _, ev := range j.Trace().Snapshot().Events {
		if ev.Name == name {
			details = append(details, ev.Detail)
		}
	}
	return details
}

// BenchmarkGeometry is the sweep tune.Megachunk's rules rest on (the
// paper's mode comparison and its Figure 7): one job at a time of each
// shape, cut into megachunks of n/8, n/4, n/2 and n cells, in place
// (MLM-implicit, through the scheduler) and staged (the library's
// MLM-sort, the flow the scheduler ran before every job was sorted in
// place, at the widths and on the pool the scheduler gives a lone job),
// beside the plan the scheduler makes when asked for nothing. Run it with
// -cpu 1 for what a job costs (on one P wall time is CPU time, and a
// loaded server has no idle core to hide a merge on) and with the host's
// cores for what an idle box returns. EXPERIMENTS.md, "Modes and Figure 7
// on the real path", has the table and how to read it; CI's geometry floor
// holds i64-1Mi/default against i64-1Mi/staged-n4, the plan it replaced.
func BenchmarkGeometry(b *testing.B) {
	shapes := []struct {
		name  string
		kind  wire.Kind
		cells int
	}{
		{"i64-256Ki", wire.KindInt64, 256 * ki},
		{"i64-1Mi", wire.KindInt64, mi},
		{"i64-4Mi", wire.KindInt64, 4 * mi},
		{"f64-512Ki", wire.KindFloat64, 512 * ki},
		{"rec-512Ki", wire.KindRecord, 512 * ki},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.cells)))
		var src []int64
		switch sh.kind {
		case wire.KindFloat64:
			src = f64Job(rng, sh.cells)
		case wire.KindRecord:
			src = recordCells(rng, sh.cells/2)
			for i := 0; i < len(src); i += 2 {
				src[i] = rng.Int63() // the benchmark's records have random keys
			}
		default:
			src = workload.Generate(workload.Random, sh.cells, 1)
		}
		run := func(name string, job func(s *Scheduler, data []int64) error) {
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				// Room for the widest row (staged, one megachunk of 4Mi
				// cells: four buffers of 32 MiB), so the budget decides no
				// row but default's.
				s, err := New(Config{MCDRAMBudget: 128 * units.MiB, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				// The radix scatters between the job's buffer and the pool's
				// scratch, and how the two sit against each other in the
				// cache's sets is worth 20-40% of a sort; a heap lays them out
				// the same way in every run of one binary, so two rows running
				// the same plan read that far apart, every time. Each job
				// therefore lands at another page offset, the same sequence in
				// every row: the server's buffers move about the same way.
				const pageCells, pages = 1 << 10, 256
				buf, place := make([]int64, sh.cells+pageCells*pages), rand.New(rand.NewSource(1))
				b.SetBytes(int64(8 * sh.cells))
				per := make([]time.Duration, b.N)
				for i := range per {
					b.StopTimer()
					off := pageCells * place.Intn(pages)
					data := buf[off : off+sh.cells : off+sh.cells]
					copy(data, src)
					b.StartTimer()
					t0 := time.Now()
					if err := job(s, data); err != nil {
						b.Fatal(err)
					}
					per[i] = time.Since(t0)
				}
				// ns/op is a mean and this host stalls: the quickest and the
				// median job are what a rule can be placed on.
				sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
				b.ReportMetric(float64(per[0])/1e6, "min-ms")
				b.ReportMetric(float64(per[len(per)/2])/1e6, "p50-ms")
			})
		}
		submit := func(megachunk int) func(*Scheduler, []int64) error {
			return func(s *Scheduler, data []int64) error {
				j, err := s.Submit(JobSpec{Data: data, KeyType: sh.kind, MegachunkLen: megachunk})
				if err != nil {
					return err
				}
				<-j.Done()
				return j.Err()
			}
		}
		staged := func(megachunk int) func(*Scheduler, []int64) error {
			return func(s *Scheduler, data []int64) error {
				if sh.kind == wire.KindFloat64 {
					psort.SortableFromFloat64Bits(data)
					defer psort.Float64BitsFromSortable(data)
				}
				opts := mlmsort.RealOptions{Buffers: 3, Pool: s.pool, Elem: elemOf(sh.kind)}
				per := s.threadShare(1)
				opts.SortWorkers = s.rates.Optimal(per, max(per/2, 1), 1).Pools.Comp
				_, err := mlmsort.RunRealResilient(context.Background(), mlmsort.MLMSort, data, per, megachunk, opts)
				return err
			}
		}
		run("default", submit(0))
		for _, div := range []int{8, 4, 2, 1} {
			run(fmt.Sprintf("staged-n%d", div), staged(sh.cells/div))
		}
		for _, div := range []int{8, 4, 2, 1} {
			run(fmt.Sprintf("inplace-n%d", div), submit(sh.cells/div))
		}
	}
}
