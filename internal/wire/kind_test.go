package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func TestKindContentTypeRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindInt64, KindFloat64, KindRecord} {
		ct := ContentTypeFor(k)
		got, ok := KindFromContentType(ct)
		if !ok || got != k {
			t.Errorf("KindFromContentType(ContentTypeFor(%v) = %q) = %v, %v", k, ct, got, ok)
		}
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind(""); ok {
		t.Error("ParseKind accepted the empty name")
	}
	cases := []struct {
		ct   string
		want Kind
		ok   bool
	}{
		{"application/x-mlm-keys", KindInt64, true},
		{"application/x-mlm-keys; kind=i64", KindInt64, true},
		{"application/x-mlm-keys; kind=f64", KindFloat64, true},
		{"application/x-mlm-keys;kind=rec", KindRecord, true},
		{"application/x-mlm-keys; charset=utf-8; kind=f64", KindFloat64, true},
		{"application/x-mlm-keys; kind=str", 0, false}, // no string wire kind
		{"application/x-mlm-keys; kind=", 0, false},
		{"application/json", 0, false},
		{"", 0, false},
		{"application/x-mlm-keys; kind", 0, false}, // malformed params fail closed
	}
	for _, c := range cases {
		got, ok := KindFromContentType(c.ct)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("KindFromContentType(%q) = %v, %v; want %v, %v", c.ct, got, ok, c.want, c.ok)
		}
	}
}

func TestKindRoundTripStreams(t *testing.T) {
	cells := []int64{3, -1, int64(math.MinInt64), 0, 7, 2}
	for _, k := range []Kind{KindInt64, KindFloat64, KindRecord} {
		var buf bytes.Buffer
		w := NewWriterKind(&buf, k, len(cells), 4)
		if err := w.Write(cells); err != nil {
			t.Fatalf("%v: write: %v", k, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%v: close: %v", k, err)
		}
		// EncodeKind must produce the identical stream.
		if enc := EncodeKind(nil, k, cells, 4); !bytes.Equal(enc, buf.Bytes()) {
			t.Errorf("%v: EncodeKind differs from Writer stream", k)
		}
		fr, err := NewReaderAnyKind(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: read header: %v", k, err)
		}
		if fr.Kind() != k {
			t.Errorf("Kind() = %v, want %v", fr.Kind(), k)
		}
		dst := make([]int64, len(cells))
		if err := fr.ReadInto(dst); err != nil {
			t.Fatalf("%v: ReadInto: %v", k, err)
		}
		for i := range dst {
			if dst[i] != cells[i] {
				t.Fatalf("%v: cell %d = %d, want %d", k, i, dst[i], cells[i])
			}
		}
	}
}

func TestStrictReaderRejectsOtherKinds(t *testing.T) {
	for _, k := range []Kind{KindFloat64, KindRecord} {
		stream := EncodeKind(nil, k, []int64{1, 2}, 0)
		if _, err := NewReader(bytes.NewReader(stream)); !errors.Is(err, ErrWrongKind) {
			t.Errorf("NewReader on %v stream: err = %v, want ErrWrongKind", k, err)
		}
	}
	// Unknown kind byte: wire prefix but alien version marker.
	stream := EncodeKind(nil, KindInt64, []int64{1}, 0)
	stream[3] = 'z'
	if _, err := NewReaderAnyKind(bytes.NewReader(stream)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("unknown kind byte: err = %v, want ErrBadMagic", err)
	}
}

func TestRecordStreamOddTotalRejected(t *testing.T) {
	// Hand-build a record header declaring 3 cells.
	stream := EncodeKind(nil, KindRecord, []int64{1, 2, 3, 4}, 0)
	stream[4] = 3 // total low byte: 4 -> 3
	if _, err := NewReaderAnyKind(bytes.NewReader(stream)); !errors.Is(err, ErrOddRecordStream) {
		t.Errorf("odd record total: err = %v, want ErrOddRecordStream", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewWriterKind with odd record total must panic")
		}
	}()
	NewWriterKind(io.Discard, KindRecord, 3, 0)
}

func TestEncodeKindOddRecordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EncodeKind with odd record cells must panic")
		}
	}()
	EncodeKind(nil, KindRecord, []int64{1, 2, 3}, 0)
}

func TestFloat64CellsCarryNaNBits(t *testing.T) {
	negNaN := uint64(0xfff8000000abcdef) // -NaN with payload
	bits := []int64{
		int64(math.Float64bits(math.NaN())),
		int64(negNaN),
		int64(math.Float64bits(math.Inf(-1))),
		int64(math.Float64bits(math.Copysign(0, -1))),
	}
	stream := EncodeKind(nil, KindFloat64, bits, 0)
	fr, err := NewReaderAnyKind(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int64, len(bits))
	if err := fr.ReadInto(dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != bits[i] {
			t.Fatalf("cell %d: %x != %x (bit patterns must survive the wire exactly)", i, dst[i], bits[i])
		}
	}
}
