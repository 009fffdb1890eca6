package edge

import (
	"net/http"
	"strconv"

	"knlmlm/internal/wire"
)

// DefaultResultChunkElems is the JSON download's streaming granularity
// (elements per write/flush) when ResultWriter.ChunkElems is zero.
const DefaultResultChunkElems = 8192

// ResultWriter renders the sorted-key batches of a job's StreamResult
// onto GET /v1/jobs/{id}/result: a chunked JSON array by default, the
// binary frame stream when Wire is set (the client sent Accept:
// application/x-mlm-keys). Nothing — no header, no byte — goes out
// before the first WriteBatch or Finish, so a consume-once refusal
// stays free to answer 410. Fill the exported fields and use it once.
type ResultWriter struct {
	W http.ResponseWriter
	// Wire selects the frame stream of Kind; JSON carries int64 only.
	Wire bool
	Kind wire.Kind
	// N is the result's cell count, sent as X-Sort-Elements and as the
	// frame stream's declared total.
	N int
	// Spilled adds X-Sort-Spilled: the body is a consume-once merge.
	Spilled bool
	// ChunkElems is the JSON elements per write and flush (zero selects
	// DefaultResultChunkElems), so a multi-gigabyte result never
	// materializes as one response buffer. FrameElems is the wire frame
	// granularity (zero selects wire.DefaultFrameElems); it is
	// deliberately independent of ChunkElems, whose smaller default suits
	// the JSON encoder's per-chunk buffer.
	ChunkElems, FrameElems int

	flusher http.Flusher
	fw      *wire.Writer
	buf     []byte
	started bool
	comma   bool
}

// Started reports whether any response bytes went out: past that point
// a failure can only be signaled by truncating the body.
func (e *ResultWriter) Started() bool { return e.started }

// begin sends the result headers and the encoding's opening ahead of
// the first body byte.
func (e *ResultWriter) begin() error {
	if e.started {
		return nil
	}
	e.started = true
	e.flusher, _ = e.W.(http.Flusher)
	ct := "application/json"
	if e.Wire {
		ct = wire.ContentTypeFor(e.Kind)
		e.fw = wire.NewWriterKind(e.W, e.Kind, e.N, e.FrameElems)
	}
	e.W.Header().Set("Content-Type", ct)
	e.W.Header().Set("X-Sort-Elements", strconv.Itoa(e.N))
	if e.Spilled {
		e.W.Header().Set("X-Sort-Spilled", "true")
	}
	if e.Wire {
		return nil // the frame writer sends its stream header with the first frame
	}
	if e.ChunkElems <= 0 {
		e.ChunkElems = DefaultResultChunkElems
	}
	_, err := e.W.Write([]byte("["))
	return err
}

// WriteBatch streams one batch. On the wire path it goes out as
// count-prefixed frames whose payload, zero-copy, is the batch's own
// memory — merge -> socket with no per-element work.
func (e *ResultWriter) WriteBatch(batch []int64) error {
	if err := e.begin(); err != nil {
		return err
	}
	if e.Wire {
		if err := e.fw.Write(batch); err != nil {
			return err
		}
		e.flush()
		return nil
	}
	for lo := 0; lo < len(batch); lo += e.ChunkElems {
		e.buf = e.buf[:0]
		for _, v := range batch[lo:min(lo+e.ChunkElems, len(batch))] {
			if e.comma {
				e.buf = append(e.buf, ',')
			}
			e.comma = true
			e.buf = strconv.AppendInt(e.buf, v, 10)
		}
		if _, err := e.W.Write(e.buf); err != nil {
			return err
		}
		e.flush()
	}
	return nil
}

func (e *ResultWriter) flush() {
	if e.flusher != nil {
		e.flusher.Flush()
	}
}

// Finish seals the stream: the JSON closing bracket, the wire
// end-of-stream marker.
func (e *ResultWriter) Finish() error {
	if err := e.begin(); err != nil {
		return err
	}
	if e.Wire {
		return e.fw.Close()
	}
	_, err := e.W.Write([]byte("]\n"))
	return err
}
