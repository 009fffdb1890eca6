package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The two load shapes. A closed loop's clients each send their next job
// when the previous one is back, so a slower system is offered less; an
// open loop sends on a schedule regardless and times each job from the
// instant it was due, so a stall is charged to every job it delays.

// jobFunc runs job i on the given lane. begin is when the job was
// handed to the system; stamp is when its last result byte was back.
type jobFunc func(lane, i int) (begin, stamp time.Time, bytes int64, err error)

// failures keeps the first few job errors for the report.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(i int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, fmt.Sprintf("job %d: %v", i, err))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// closedLoop runs clients lanes back to back until the window closes,
// numbering jobs from first. A sample is placed at its completion
// instant; a job still in flight when the window closes finishes but
// lands outside every round.
func closedLoop(clients int, start time.Time, window time.Duration, first int, job jobFunc, fails *failures) []sample {
	deadline := start.Add(window)
	var next atomic.Int64
	lanes := make([][]sample, clients)
	var wg sync.WaitGroup
	for lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]sample, 0, 1<<14)
			for time.Now().Before(deadline) {
				i := first + int(next.Add(1)-1)
				begin, stamp, bytes, err := job(lane, i)
				if err != nil {
					fails.add(i, err)
				}
				out = append(out, sample{
					at: stamp.Sub(start), from: begin.Sub(start), to: stamp.Sub(start),
					latMS: ms(stamp.Sub(begin)), bytes: bytes, ok: err == nil,
				})
			}
			lanes[lane] = out
		}()
	}
	wg.Wait()
	return flatten(lanes)
}

// warmUp runs exactly n jobs across the lanes, untimed.
func warmUp(clients, n int, job jobFunc, fails *failures) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < clients; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if _, _, _, err := job(lane, i); err != nil {
					fails.add(i, err)
				}
			}
		}()
	}
	wg.Wait()
}

// openLoop issues job i at start+due[i] from a fixed set of workers. A
// job whose due instant passes while every worker is busy starts late;
// its latency still runs from the due instant, and how late it started
// is kept as the generator's own lateness. A sample is placed at its
// due instant.
func openLoop(workers int, start time.Time, due []time.Duration, first int, job jobFunc, fails *failures) []sample {
	var next atomic.Int64
	lanes := make([][]sample, workers)
	var wg sync.WaitGroup
	for lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]sample, 0, len(due)/workers+1)
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					break
				}
				dueAt := start.Add(due[k])
				time.Sleep(time.Until(dueAt))
				began := time.Now()
				_, stamp, bytes, err := job(lane, first+k)
				if err != nil {
					fails.add(first+k, err)
				}
				out = append(out, sample{
					at: due[k], from: due[k], to: stamp.Sub(start),
					latMS: ms(stamp.Sub(dueAt)), lateMS: ms(began.Sub(dueAt)),
					bytes: bytes, ok: err == nil,
				})
			}
			lanes[lane] = out
		}()
	}
	wg.Wait()
	return flatten(lanes)
}

func flatten(lanes [][]sample) []sample {
	var out []sample
	for _, l := range lanes {
		out = append(out, l...)
	}
	return out
}

// fixedRate is an arrival schedule of n jobs at rate per second.
func fixedRate(rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// boundary is what is read at each round boundary.
type boundary struct {
	cpu                float64 // CPU seconds so far of the processes doing the sort
	busy, steal, total float64 // host-wide jiffies from /proc/stat: running, stolen by the hypervisor, and all
}

// sampleAtBoundaries reads cpu and the host's steal counter at the
// window start and at the end of each round, blocking until the window
// closes. The differences are the per-round CPU cost and the share of
// the round the hypervisor gave to someone else.
func sampleAtBoundaries(start time.Time, roundLen time.Duration, rounds int, cpu func() float64) []boundary {
	out := make([]boundary, 0, rounds+1)
	for r := 0; r <= rounds; r++ {
		time.Sleep(time.Until(start.Add(time.Duration(r) * roundLen)))
		b := boundary{cpu: cpu()}
		b.busy, b.steal, b.total = hostJiffies()
		out = append(out, b)
	}
	return out
}
