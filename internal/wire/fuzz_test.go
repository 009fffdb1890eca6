package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// FuzzRoundTrip is the codec's differential oracle: for an arbitrary
// []int64 (derived from fuzzed bytes) and frame size it asserts that
//
//   - the encode path and the independent reference encoder produce
//     byte-identical streams, and so does the EncodeReader read in
//     odd-sized pieces, and
//   - decoding the stream returns exactly the input, through both the
//     one-shot Decode and an incremental ReadBatch loop,
//
// on the host's path (zero-copy on little-endian hosts) and again on the
// portable encoding/binary one.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1}, uint16(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint16(3))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxUint64), uint16(7))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(2))
	f.Fuzz(func(t *testing.T, raw []byte, frame uint16) {
		// Odd tails are kept: the last partial key is sign-extended from
		// whatever bytes are present, so odd lengths still shape the input.
		keys := make([]int64, (len(raw)+7)/8)
		for i := range keys {
			var b [8]byte
			copy(b[:], raw[i*8:])
			keys[i] = int64(binary.LittleEndian.Uint64(b[:]))
		}
		roundTrip(t, keys, int(frame))
		if zeroCopy {
			defer forcePortable()()
			roundTrip(t, keys, int(frame))
		}
	})
}

// roundTrip is FuzzRoundTrip's check for one input on the codec's
// current path.
func roundTrip(t *testing.T, keys []int64, frameElems int) {
	t.Helper()
	enc := Encode(nil, keys, frameElems)
	ref := refEncode(keys, frameElems)
	if !bytes.Equal(enc, ref) {
		t.Fatalf("encode path diverges from portable reference (zeroCopy=%v, %d keys, frame %d)",
			zeroCopy, len(keys), frameElems)
	}

	var streamed []byte
	er := NewEncodeReader(keys, frameElems)
	piece := make([]byte, 1+frameElems%61)
	for {
		n, err := er.Read(piece)
		streamed = append(streamed, piece[:n]...)
		if err == io.EOF {
			break
		}
	}
	if !bytes.Equal(streamed, enc) {
		t.Fatalf("EncodeReader diverges from Encode (%d keys, frame %d, reads of %d)",
			len(keys), frameElems, len(piece))
	}

	got, err := Decode(bytes.NewReader(enc), 0, nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(keys) {
		t.Fatalf("decoded %d of %d keys", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d: %d != %d", i, got[i], keys[i])
		}
	}

	// Incremental decode with a batch size that never divides the frame
	// size evenly.
	fr, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var inc []int64
	buf := make([]int64, 13)
	for {
		n, err := fr.ReadBatch(buf)
		inc = append(inc, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		if n == 0 && len(inc) == len(keys) {
			break
		}
	}
	if err := fr.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(inc) != len(keys) {
		t.Fatalf("incremental decoded %d of %d keys", len(inc), len(keys))
	}
	for i := range keys {
		if inc[i] != keys[i] {
			t.Fatalf("incremental key %d: %d != %d", i, inc[i], keys[i])
		}
	}
}
