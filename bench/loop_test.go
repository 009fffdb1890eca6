package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// stallFirst is a job that takes no time, except that job 0 holds its
// worker for d.
func stallFirst(d time.Duration) jobFunc {
	return func(lane, i int) (time.Time, time.Time, int64, error) {
		begin := time.Now()
		if i == 0 {
			time.Sleep(d)
		}
		return begin, time.Now(), 8, nil
	}
}

// A stalled open loop must charge the stall to the jobs it delayed:
// their latency runs from the instant they were due, not from when a
// worker finally picked them up.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const stall = 120 * time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	samples := openLoop(1, time.Now(), due, 0, stallFirst(stall), &failures{})
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	for _, s := range samples {
		queued := stall - s.at // how long the job sat behind the stall
		switch {
		case s.at == 0:
			if s.latMS < ms(stall) {
				t.Errorf("stalled job latency %.1f ms, want at least %.1f", s.latMS, ms(stall))
			}
		default:
			if s.latMS < ms(queued) {
				t.Errorf("job due at %v: latency %.1f ms, want at least the %.1f ms it queued", s.at, s.latMS, ms(queued))
			}
			if s.lateMS < ms(queued) {
				t.Errorf("job due at %v: lateness %.1f ms, want at least %.1f", s.at, s.lateMS, ms(queued))
			}
		}
		if s.from != s.at || s.to < s.from {
			t.Errorf("open-loop sample interval [%v, %v] does not start at its due instant %v", s.from, s.to, s.at)
		}
	}
}

func TestOpenLoopWithSpareWorkerIsOnTime(t *testing.T) {
	// Two workers: the second absorbs the arrivals behind the stall.
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	samples := openLoop(2, time.Now(), due, 0, stallFirst(400*time.Millisecond), &failures{})
	for _, s := range samples {
		if s.at != 0 && s.latMS > 300 {
			t.Errorf("job due at %v waited %.1f ms although a worker was free", s.at, s.latMS)
		}
	}
}

func TestFixedRateSchedule(t *testing.T) {
	due := fixedRate(25, 60)
	if len(due) != 60 || due[0] != 0 || due[25] != time.Second || due[50] != 2*time.Second {
		t.Errorf("fixedRate(25, 60): len %d, due[0]=%v due[25]=%v due[50]=%v", len(due), due[0], due[25], due[50])
	}
}

func TestWarmUpRunsExactlyN(t *testing.T) {
	var ran atomic.Int64
	fails := &failures{}
	warmUp(2, 37, func(lane, i int) (time.Time, time.Time, int64, error) {
		ran.Add(1)
		if i == 5 {
			return time.Now(), time.Now(), 0, errors.New("boom")
		}
		return time.Now(), time.Now(), 0, nil
	}, fails)
	if ran.Load() != 37 {
		t.Errorf("warm-up ran %d jobs, want 37", ran.Load())
	}
	if fails.n != 1 || len(fails.msgs) != 1 {
		t.Errorf("warm-up failure not recorded: %+v", fails)
	}
}

func TestClosedLoopPlacesSamplesAtCompletion(t *testing.T) {
	start := time.Now()
	samples := closedLoop(2, start, 60*time.Millisecond, 0, func(lane, i int) (time.Time, time.Time, int64, error) {
		begin := time.Now()
		time.Sleep(5 * time.Millisecond)
		return begin, time.Now(), 8, nil
	}, &failures{})
	if len(samples) < 4 {
		t.Fatalf("only %d jobs in a 60 ms window of 5 ms jobs on 2 lanes", len(samples))
	}
	for _, s := range samples {
		if s.at != s.to || s.from >= s.to || s.latMS < 5 {
			t.Errorf("closed-loop sample %+v: want at == to, from < to, latency >= 5 ms", s)
		}
	}
}
