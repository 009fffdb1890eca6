package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"knlmlm/internal/wire"
)

// The load generator's HTTP side. One client per goroutine; each owns
// its result buffer and readers, so a job allocates nothing that scales
// with its size. All clients share one transport capped at as many
// connections as there are clients.

// expectation is what a correct response must look like beyond being a
// sorted permutation.
type expectation struct {
	spilled  bool // every result must (true) or must not (false) carry X-Sort-Spilled
	minParts int  // coordinator only: partitions the job must have been split into
}

type client struct {
	hc     *http.Client
	base   string
	lane   int
	expect expectation
	buf    []int64
	body   bytes.Reader
	br     *bufio.Reader
	tr     *tracer
	// How the last job's time split between the two requests; the layer
	// panel reads these.
	lastSubmit, lastDownload time.Duration
}

func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
}

func newClient(hc *http.Client, base string, lane, maxCells int, ex expectation) *client {
	return &client{
		hc: hc, base: base, lane: lane, expect: ex,
		buf: make([]int64, maxCells),
		br:  bufio.NewReaderSize(nil, 64<<10),
	}
}

// submitStatus is the part of the service's job status the client reads.
type submitStatus struct {
	State     string `json:"state"`
	ResultURL string `json:"result_url"`
	Error     string `json:"error"`
	Parts     int    `json:"parts"`
}

// jobIDs numbers jobs across clients so a job's spans share one id.
var jobIDs atomic.Int64

// do runs one job: POST in wait mode, download the result, stamp the
// instant the last result byte arrived, then verify. The stamp is what
// latency is measured to; verification runs after it.
func (c *client) do(in *input) (stamp time.Time, err error) {
	id := jobIDs.Add(1)
	t0 := time.Now()
	defer func() {
		if stamp.IsZero() {
			stamp = time.Now()
		}
		c.tr.add(c.lane, "job", "", id, t0, time.Now())
	}()

	c.body.Reset(in.body)
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/sort?wait=true", &c.body)
	if err != nil {
		return stamp, err
	}
	req.ContentLength = int64(len(in.body))
	req.Header.Set("Content-Type", in.contentType)
	if in.deadline {
		req.Header.Set("X-Deadline-Ms", deadlineMS)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return stamp, fmt.Errorf("submit: %w", err)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if err != nil {
		return stamp, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return stamp, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var st submitStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return stamp, fmt.Errorf("submit: %w", err)
	}
	if st.State != "done" || st.ResultURL == "" {
		return stamp, fmt.Errorf("submit: job ended %q: %s", st.State, st.Error)
	}
	if st.Parts < c.expect.minParts {
		return stamp, fmt.Errorf("job ran as %d partitions, want at least %d", st.Parts, c.expect.minParts)
	}
	t1 := time.Now()
	c.lastSubmit = t1.Sub(t0)
	c.tr.add(c.lane, "submit", "job", id, t0, t1)

	req, err = http.NewRequest(http.MethodGet, c.base+st.ResultURL, nil)
	if err != nil {
		return stamp, err
	}
	if !in.json {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err = c.hc.Do(req)
	if err != nil {
		return stamp, fmt.Errorf("download: %w", err)
	}
	got, err := c.readResult(resp, in)
	resp.Body.Close()
	stamp = time.Now()
	c.lastDownload = stamp.Sub(t1)
	c.tr.add(c.lane, "download", "job", id, t1, stamp)
	if err != nil {
		return stamp, fmt.Errorf("download: %w", err)
	}
	err = verify(in, got)
	c.tr.add(c.lane, "verify", "job", id, stamp, time.Now())
	return stamp, err
}

// readResult decodes the response body into the client's buffer.
func (c *client) readResult(resp *http.Response, in *input) ([]int64, error) {
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if spilled := resp.Header.Get("X-Sort-Spilled") == "true"; spilled != c.expect.spilled {
		return nil, fmt.Errorf("X-Sort-Spilled is %v, want %v", spilled, c.expect.spilled)
	}
	if in.cells > len(c.buf) {
		return nil, errors.New("result larger than the client buffer")
	}
	dst := c.buf[:in.cells]
	if in.json {
		c.br.Reset(resp.Body)
		n, err := readJSONInts(c.br, dst)
		return dst[:n], err
	}
	fr, err := wire.NewReaderAnyKind(resp.Body)
	if err != nil {
		return nil, err
	}
	if fr.Kind() != in.kind {
		return nil, fmt.Errorf("result stream kind %v, want %v", fr.Kind(), in.kind)
	}
	if fr.Total() != int64(in.cells) {
		return nil, fmt.Errorf("%w: stream declares %d cells, want %d", errWrongCount, fr.Total(), in.cells)
	}
	return dst, fr.ReadInto(dst)
}

// httpGet fetches a small document (healthz, metrics) outside timed windows.
func httpGet(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return raw, nil
}
