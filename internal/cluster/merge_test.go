package cluster

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedFill stands in for the HTTP download of mergeStreams' fill
// argument: stream i delivers batches[i] into its channel, after delay[i]
// if set, and the start and finish order of the fills is recorded.
type scriptedFill struct {
	batches map[*partStream][][]int64
	delay   map[*partStream]time.Duration

	mu     sync.Mutex
	events []fillEvent
}

type fillEvent struct {
	stream *partStream
	start  bool
}

func (f *scriptedFill) note(s *partStream, start bool) {
	f.mu.Lock()
	f.events = append(f.events, fillEvent{s, start})
	f.mu.Unlock()
}

func (f *scriptedFill) fill(ctx context.Context, s *partStream) error {
	f.note(s, true)
	defer f.note(s, false)
	if d := f.delay[s]; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, b := range f.batches[s] {
		select {
		case s.ch <- b:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func scriptStreams(parts [][][]int64) ([]*partStream, *scriptedFill) {
	f := &scriptedFill{batches: map[*partStream][][]int64{}, delay: map[*partStream]time.Duration{}}
	streams := make([]*partStream, len(parts))
	for i, batches := range parts {
		streams[i] = &partStream{ch: make(chan []int64, 1)}
		f.batches[streams[i]] = batches
	}
	return streams, f
}

// TestReadAheadWidth pins the coordinator's download window: two streams,
// never more than there are partitions.
func TestReadAheadWidth(t *testing.T) {
	for _, tc := range []struct{ parts, want int }{{1, 1}, {2, 2}, {5, 2}} {
		if got := readAheadWidth(tc.parts); got != tc.want {
			t.Errorf("readAheadWidth(%d) = %d, want %d", tc.parts, got, tc.want)
		}
	}
}

// TestMergeStreamsSlidingWindow drives the coordinator's gather over
// channel-backed streams, no HTTP: range-disjoint partitions must come
// out concatenated, stream i must not start downloading before stream
// i-width has delivered in full, and time spent waiting on a slow
// download must land in the stall counter.
func TestMergeStreamsSlidingWindow(t *testing.T) {
	const width = 2
	const slow = 40 * time.Millisecond
	parts := [][][]int64{
		{{1, 2}, {3}},
		{{4, 5, 6}},
		{{7}, {8, 9}},
		{{10, 11}},
		{{12}, {13}, {14}},
	}
	streams, f := scriptStreams(parts)
	f.delay[streams[3]] = slow

	var got []int64
	n, stall, err := mergeStreams(context.Background(), streams, width, nil, f.fill, func(b []int64) error {
		got = append(got, b...)
		return nil
	})
	if err != nil {
		t.Fatalf("mergeStreams: %v", err)
	}
	want := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	if n != int64(len(want)) || !slices.Equal(got, want) {
		t.Fatalf("merged %d elements %v, want %v", n, got, want)
	}
	// The drain reaches stream 3 and waits there for its first batch.
	if stall < slow/2 {
		t.Fatalf("stall = %v, want most of the %v the gather waited on stream 3", stall, slow)
	}

	index := map[*partStream]int{}
	for i, s := range streams {
		index[s] = i
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	finished := map[int]bool{}
	running, started := 0, 0
	for _, e := range f.events {
		i := index[e.stream]
		if !e.start {
			finished[i] = true
			running--
			continue
		}
		started++
		if running++; running > width {
			t.Fatalf("stream %d started a download with %d already in flight (width %d)", i, running-1, width)
		}
		if i >= width && !finished[i-width] {
			t.Fatalf("stream %d started before stream %d had delivered", i, i-width)
		}
	}
	if started != len(streams) {
		t.Fatalf("%d of %d streams downloaded", started, len(streams))
	}
}

// TestMergeStreamsRejectsOverlapBeyondWindow: the gather concatenates,
// so it is only correct while the partitions really are disjoint and
// ordered. Streams that overlap (here every stream's range spans the
// others') must fail with an overlap error rather than emit keys out of
// order, and leave no fill goroutine behind.
func TestMergeStreamsRejectsOverlapBeyondWindow(t *testing.T) {
	streams, f := scriptStreams([][][]int64{
		{{1, 5}, {9, 13}},
		{{2, 6}, {10, 14}},
		{{3, 7}, {11, 15}},
	})
	var got []int64
	_, _, err := mergeStreams(context.Background(), streams, 2, nil, f.fill, func(b []int64) error {
		got = append(got, b...)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("err = %v after emitting %v, want an overlap error", err, got)
	}
	if !slices.IsSorted(got) {
		t.Fatalf("out-of-order keys were emitted before the error: %v", got)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	open := 0
	for _, e := range f.events {
		if e.start {
			open++
		} else {
			open--
		}
	}
	if open != 0 {
		t.Fatalf("%d fill goroutines still running after mergeStreams returned", open)
	}
}

// TestMergeStreamsNoHeadOfLineWait: stream 0's last batch must reach the
// caller while stream 1 has delivered nothing yet. Stream 1's fill holds
// its first batch back until key 3 has been emitted (or 2 s pass, so a
// gather that waits on stream 1 first still finishes and fails here).
func TestMergeStreamsNoHeadOfLineWait(t *testing.T) {
	streams, f := scriptStreams([][][]int64{
		{{1, 2}, {3}},
		{{4, 5}},
	})
	sawThree := make(chan struct{})
	var delivered atomic.Bool
	fill := func(ctx context.Context, s *partStream) error {
		if s == streams[1] {
			select {
			case <-sawThree:
			case <-time.After(2 * time.Second):
			case <-ctx.Done():
				return ctx.Err()
			}
			delivered.Store(true)
		}
		return f.fill(ctx, s)
	}
	var got []int64
	waited := false
	_, _, err := mergeStreams(context.Background(), streams, 2, nil, fill, func(b []int64) error {
		got = append(got, b...)
		if slices.Contains(b, 3) {
			waited = delivered.Load()
			close(sawThree)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("mergeStreams: %v", err)
	}
	if want := []int64{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("gathered %v, want %v", got, want)
	}
	if waited {
		t.Fatal("key 3 reached the caller only after stream 1 delivered: stream 0's tail waited on stream 1")
	}
}
