package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"knlmlm/internal/edge"
	"knlmlm/internal/exec"
	"knlmlm/internal/fault"
	"knlmlm/internal/mem"
	"knlmlm/internal/wire"
)

// The job path's buffers come from the coordinator's key pool. These
// tests pin when the job buffer goes back: once, after a result
// delivered in full, and never after a download that failed or was
// cancelled, when a fill or a re-run upload might still read it.

// sortedJob submits keys straight to the coordinator, waits for the job
// to turn Done and returns it with the buffer its partitions slice.
func sortedJob(t *testing.T, tc *testCluster, keys []int64) (*Job, []int64) {
	t.Helper()
	j, err := tc.coord.Submit(edge.SortRequest{Keys: keys})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := j.Wait(context.Background()); err != nil || j.State() != stateDone {
		t.Fatalf("job ended %s: %v", j.State(), j.Err())
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.buf) == 0 {
		t.Fatal("a sorted job holds no buffer")
	}
	return j, j.buf
}

// pooledCopies drains buf's size class from pool and counts the slices
// that are buf.
func pooledCopies(pool *mem.SlicePool, buf []int64) int {
	copies := 0
	for {
		hits := pool.Stats().Hits
		s := pool.Get(len(buf))
		if pool.Stats().Hits == hits {
			return copies
		}
		if &s[0] == &buf[0] {
			copies++
		}
	}
}

func collectResult(ctx context.Context, j *Job) ([]int64, error) {
	var got []int64
	_, err := j.StreamResult(ctx, func(b []int64) error {
		got = append(got, b...)
		return nil
	})
	return got, err
}

func TestJobBufferReturnsOnceAfterDelivery(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	// 50000 keys: the caller's slice is no pool class, so only the job
	// buffer can land in the class under test.
	keys := testKeys(50000, 21)
	want := wantSorted(keys)
	j, buf := sortedJob(t, tc, keys)
	got, err := collectResult(context.Background(), j)
	if err != nil {
		t.Fatalf("StreamResult: %v", err)
	}
	checkResult(t, got, want)
	if n := pooledCopies(tc.coord.keyPool, buf); n != 1 {
		t.Fatalf("job buffer is on the pool %d times after delivery, want 1", n)
	}
	if _, err := collectResult(context.Background(), j); !errors.Is(err, ErrResultConsumed) {
		t.Fatalf("second StreamResult: %v, want ErrResultConsumed", err)
	}
	if j.release() != nil {
		t.Fatal("an eviction after delivery would hand the buffer back again")
	}
}

func TestJobBufferKeptAfterFailedDownload(t *testing.T) {
	// Every result stream is severed on every read: the download runs out
	// of retries and fails.
	inj := fault.MustNewInjector(4, fault.Spec{
		Stage:  exec.StageCopyOut,
		Kind:   fault.ConnKill,
		Rate:   1,
		Chunks: []int{0, 1},
	})
	tc := newTestCluster(t, 2, func(c *Config) { c.ConnFaults = inj })
	j, buf := sortedJob(t, tc, testKeys(50000, 22))
	if _, err := collectResult(context.Background(), j); err == nil {
		t.Fatal("download succeeded with every stream severed")
	}
	if n := pooledCopies(tc.coord.keyPool, buf); n != 0 {
		t.Fatalf("failed download returned the job buffer %d times", n)
	}
}

func TestJobBufferKeptAfterCancelledDownload(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	j, buf := sortedJob(t, tc, testKeys(50000, 23))
	gone := errors.New("client went away")
	_, err := j.StreamResult(context.Background(), func([]int64) error { return gone })
	if !errors.Is(err, gone) {
		t.Fatalf("StreamResult: %v, want the emit error", err)
	}
	if n := pooledCopies(tc.coord.keyPool, buf); n != 0 {
		t.Fatalf("cancelled download returned the job buffer %d times", n)
	}
}

func TestJobBufferFailoverMidStream(t *testing.T) {
	// Backend 1's first stream is cut mid-download; its partition re-runs
	// from the pooled job buffer, and the result is still the exact
	// sorted permutation, after which the buffer goes back once.
	inj := fault.MustNewInjector(9, fault.Spec{
		Stage:   exec.StageCopyOut,
		Kind:    fault.ConnKill,
		Rate:    1,
		Chunks:  []int{1},
		MaxHits: 1,
	})
	tc := newTestCluster(t, 2, func(c *Config) { c.ConnFaults = inj })
	keys := testKeys(50000, 24)
	want := wantSorted(keys)
	j, buf := sortedJob(t, tc, keys)
	got, err := collectResult(context.Background(), j)
	if err != nil {
		t.Fatalf("StreamResult: %v", err)
	}
	checkResult(t, got, want)
	if j.Retries() < 1 {
		t.Fatal("the severed stream was not retried")
	}
	if n := pooledCopies(tc.coord.keyPool, buf); n != 1 {
		t.Fatalf("job buffer is on the pool %d times after delivery, want 1", n)
	}
}

func TestConcurrentJobsShareThePool(t *testing.T) {
	// Four clients submit binary bodies and download wire results at
	// once, three rounds each, so pooled bodies, job buffers and batches
	// pass between jobs; every result must be its own keys, sorted.
	tc := newTestCluster(t, 2, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				keys := testKeys(40000+1000*c, int64(100*c+round))
				if err := binaryRoundTrip(tc, keys); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, round, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// binaryRoundTrip submits keys as a binary body, waits, downloads the
// wire result and compares it with keys sorted.
func binaryRoundTrip(tc *testCluster, keys []int64) error {
	want := wantSorted(keys)
	req, _, err := edge.NewWireSubmit(context.Background(), tc.http.URL, edge.SortRequest{Keys: keys, Wait: true})
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	dreq, _ := http.NewRequest(http.MethodGet, tc.http.URL+edge.ResultPath(st.ID), nil)
	dreq.Header.Set("Accept", wire.ContentType)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		return err
	}
	defer dresp.Body.Close()
	got, err := wire.Decode(dresp.Body, int64(len(keys)), nil)
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("result[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
