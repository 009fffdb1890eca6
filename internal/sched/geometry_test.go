package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"knlmlm/internal/exec"
	"knlmlm/internal/memkind"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/telemetry"
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
//   - MLM-sort by name: four megachunks staged in and out, the same 8 MiB
//     (three staging buffers and a scratch of 256Ki cells), and under a
//     heap that can place none of them every megachunk degrades and the job
//     still sorts;
//   - the default under a 4 MiB budget, where the largest in-place
//     megachunk is 512Ki cells: two megachunks and a final merge.
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
		alg        mlmsort.Algorithm
		tinyHeap   bool
		megachunks int
		copyBytes  int64
		merges     int
		lease      int64
		flow       string
	}{
		{"default", mi, 64 * units.MiB, 0, false, 1, 0, 0, 8 * mi, "in-place"},
		{"default-1Ki", ki, 64 * units.MiB, 0, false, 1, 0, 0, 8 * ki, "in-place"},
		{"MLM-sort", mi, 64 * units.MiB, mlmsort.MLMSort, false, 4, 8 * mi, 1, 8 * mi, "staged"},
		{"MLM-sort-degraded", mi, 64 * units.MiB, mlmsort.MLMSort, true, 4, 8 * mi, 1, 8 * mi, "staged"},
		{"default-over-budget", mi, 4 * units.MiB, 0, false, 2, 0, 1, 4 * mi, "in-place"},
	}
	rng := rand.New(rand.NewSource(23))
	for _, sh := range shapes {
		for _, k := range kinds {
			t.Run(sh.name+"/"+k.kind.String(), func(t *testing.T) {
				meter := &stageMeter{}
				res := telemetry.NewResilience(telemetry.NewRegistry())
				cfg := Config{MCDRAMBudget: sh.budget, Workers: 1, Resilience: res}
				cfg.Wrap = meter.wrap
				if sh.tinyHeap {
					cfg.Heap = memkind.NewHeap(units.KiB, units.GiB)
				}
				s := newTestScheduler(t, cfg)
				n, input := sh.n, k.input(rng, sh.n)
				j, err := s.Submit(JobSpec{Data: append([]int64(nil), input...), KeyType: k.kind, Algorithm: sh.alg})
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				waitDone(t, j)
				out, err := j.Result()
				if err != nil {
					t.Fatalf("result: %v", err)
				}
				k.check(t, out, input)

				if meter.megachunks != sh.megachunks {
					t.Errorf("ran %d megachunks, want %d", meter.megachunks, sh.megachunks)
				}
				if in, out := meter.bytes.CopyInBytes(), meter.bytes.CopyOutBytes(); in != sh.copyBytes || out != sh.copyBytes {
					t.Errorf("copy stages saw %d bytes in and %d out, want %d each way", in, out, sh.copyBytes)
				}
				if got := meter.bytes.ComputeBytes(); got != int64(16*n) {
					t.Errorf("compute stage charged %d bytes, want %d", got, 16*n)
				}
				if got := finalMerges(j); got != sh.merges {
					t.Errorf("%d final merges, want %d", got, sh.merges)
				}
				if got := j.LeaseBytes(); got != sh.lease {
					t.Errorf("lease %d bytes, want %d", got, sh.lease)
				}
				wantDegraded := int64(0)
				if sh.tinyHeap {
					wantDegraded = int64(sh.megachunks)
				}
				if got := res.Degradations(); got != wantDegraded {
					t.Errorf("%d megachunks degraded, want %d", got, wantDegraded)
				}
				wantPlan := fmt.Sprintf("flow=%s megachunk=%d megachunks=%d lease=%d", sh.flow, n/sh.megachunks, sh.megachunks, sh.lease)
				if got := planEvents(j); len(got) != 1 || got[0] != wantPlan {
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

// planEvents reports the details of a job's plan trace events.
func planEvents(j *Job) (plans []string) {
	for _, ev := range j.Trace().Snapshot().Events {
		if ev.Name == "plan" {
			plans = append(plans, ev.Detail)
		}
	}
	return plans
}

// BenchmarkGeometry is the sweep tune.Megachunk's rules rest on (the
// paper's mode comparison and its Figure 7, through the scheduler): one job
// at a time of each shape, cut into megachunks of n/8, n/4, n/2 and n
// cells, staged (MLM-sort) and in place (MLM-implicit), beside the plan the
// scheduler makes when asked for nothing. Run it with -cpu 1 for what a job
// costs (on one P wall time is CPU time, and a loaded server has no idle
// core to hide a merge on) and with the host's cores for what an idle box
// returns. EXPERIMENTS.md, "Modes and Figure 7 on the real path", has the
// table and how to read it; CI's geometry floor holds i64-1Mi/default
// against i64-1Mi/staged-n4, the plan it replaced.
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
		run := func(name string, spec JobSpec) {
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
				spec.KeyType = sh.kind
				b.SetBytes(int64(8 * sh.cells))
				per := make([]time.Duration, b.N)
				for i := range per {
					b.StopTimer()
					off := pageCells * place.Intn(pages)
					spec.Data = buf[off : off+sh.cells : off+sh.cells]
					copy(spec.Data, src)
					b.StartTimer()
					t0 := time.Now()
					j, err := s.Submit(spec)
					if err != nil {
						b.Fatal(err)
					}
					<-j.Done()
					per[i] = time.Since(t0)
					if err := j.Err(); err != nil {
						b.Fatal(err)
					}
				}
				// ns/op is a mean and this host stalls: the quickest and the
				// median job are what a rule can be placed on.
				sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
				b.ReportMetric(float64(per[0])/1e6, "min-ms")
				b.ReportMetric(float64(per[len(per)/2])/1e6, "p50-ms")
			})
		}
		run("default", JobSpec{})
		for _, flow := range []struct {
			name string
			alg  mlmsort.Algorithm
		}{{"staged", mlmsort.MLMSort}, {"inplace", mlmsort.MLMImplicit}} {
			for _, div := range []int{8, 4, 2, 1} {
				run(fmt.Sprintf("%s-n%d", flow.name, div), JobSpec{Algorithm: flow.alg, MegachunkLen: sh.cells / div})
			}
		}
	}
}
