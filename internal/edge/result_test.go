package edge

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"knlmlm/internal/wire"
)

// untouched fails unless nothing of the response has gone out: a
// consume-once refusal must still be free to answer 410.
func untouched(t *testing.T, e *ResultWriter, rec *httptest.ResponseRecorder) {
	t.Helper()
	if e.Started() || rec.Body.Len() != 0 || len(rec.Header()) != 0 {
		t.Fatalf("before the first batch: started=%v, %d body bytes, headers %v; want nothing sent",
			e.Started(), rec.Body.Len(), rec.Header())
	}
}

func TestResultWriterJSON(t *testing.T) {
	t.Run("empty result", func(t *testing.T) {
		rec := httptest.NewRecorder()
		e := &ResultWriter{W: rec}
		untouched(t, e, rec)
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != "[]\n" {
			t.Fatalf("body %q, want %q", got, "[]\n")
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		if !e.Started() {
			t.Fatal("Started() false after Finish wrote the body")
		}
	})
	t.Run("commas across chunks and batches", func(t *testing.T) {
		rec := httptest.NewRecorder()
		e := &ResultWriter{W: rec, N: 12, Spilled: true, ChunkElems: 3}
		untouched(t, e, rec)
		// Batches that end inside a chunk, on a chunk boundary, and empty.
		for i, batch := range [][]int64{{-1, 2, 3, 4}, {5, 6}, {}, {7, 8, 9, 10, 11, 12}} {
			if err := e.WriteBatch(batch); err != nil {
				t.Fatal(err)
			}
			if !e.Started() {
				t.Fatalf("Started() false after batch %d", i)
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.Body.String(), "[-1,2,3,4,5,6,7,8,9,10,11,12]\n"; got != want {
			t.Fatalf("body %q, want %q", got, want)
		}
		h := rec.Header()
		if h.Get("X-Sort-Elements") != "12" || h.Get("X-Sort-Spilled") != "true" || !rec.Flushed {
			t.Fatalf("headers %v, flushed %v", h, rec.Flushed)
		}
	})
}

func TestResultWriterWire(t *testing.T) {
	keys := []int64{-5, -1, 0, 3, 3, 8, 1 << 40}
	rec := httptest.NewRecorder()
	e := &ResultWriter{W: rec, Wire: true, Kind: wire.KindInt64, N: len(keys), FrameElems: 4}
	untouched(t, e, rec)
	if err := e.WriteBatch(keys[:5]); err != nil {
		t.Fatal(err)
	}
	if !e.Started() {
		t.Fatal("Started() false after the first batch")
	}
	if err := e.WriteBatch(keys[5:]); err != nil {
		t.Fatal(err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeFor(wire.KindInt64) {
		t.Fatalf("Content-Type %q", ct)
	}
	body := rec.Body.Bytes()
	if !bytes.HasSuffix(body, []byte{0, 0, 0, 0}) {
		t.Fatalf("stream does not end with the zero-length frame: % x", body[len(body)-8:])
	}
	got, err := wire.Decode(bytes.NewReader(body), int64(len(keys)), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], keys[i])
		}
	}

	// An empty result is still a complete stream: header and end marker.
	rec = httptest.NewRecorder()
	e = &ResultWriter{W: rec, Wire: true, Kind: wire.KindInt64}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), wire.Encode(nil, nil, 0)) {
		t.Fatalf("empty stream % x, want % x", rec.Body.Bytes(), wire.Encode(nil, nil, 0))
	}
}
