package wire

// Typed frame streams. The frame layout (header, count-prefixed frames,
// end marker) is identical for every key type; only the 4-byte magic and
// the interpretation of the 8-byte payload cells differ:
//
//	MLK1  int64 keys      — one cell per key (the original stream)
//	MLKf  float64 keys    — one cell per key, raw IEEE-754 bits
//	MLKr  key+payload kv  — two cells per record: key, then payload
//
// Keeping the payload cell 8 bytes for every kind means the zero-copy
// []int64 ↔ []byte paths, EncodedLen, frame sizing, and every reader
// bound all work unchanged — a float64 stream is carried as its bit
// patterns and a record stream as interleaved key/payload cells, exactly
// the in-memory layouts psort's view casts (f64AsI64, KVsFromInt64s)
// give those types. Totals and frame counts stay in cells, so a record
// stream's total is 2x its record count and must be even.
//
// On HTTP the kind travels as a media-type parameter on the one
// ContentType ("application/x-mlm-keys; kind=f64"), so existing
// peers that send the bare type keep meaning int64, and parameter-
// stripping intermediaries fail closed: a stripped kind param decodes as
// int64 and the magic check catches the mismatch.

import (
	"fmt"
	"mime"
)

// Kind identifies the key type carried by a frame stream.
type Kind uint8

const (
	// KindInt64 is the original stream of int64 keys (magic MLK1).
	KindInt64 Kind = iota
	// KindFloat64 carries float64 keys as raw IEEE-754 bit cells (MLKf).
	KindFloat64
	// KindRecord carries fixed-width key+payload records as cell pairs
	// (MLKr); stream totals count cells, so they are always even.
	KindRecord
)

// kindMagics maps each kind to its stream magic; the first byte triple
// is shared so a reader can report "wire stream, wrong kind" distinctly
// from "not a wire stream at all".
var kindMagics = [...][4]byte{
	KindInt64:   {'M', 'L', 'K', '1'},
	KindFloat64: {'M', 'L', 'K', 'f'},
	KindRecord:  {'M', 'L', 'K', 'r'},
}

// kindParams maps each kind to its media-type parameter value. KindInt64
// is the default and is also written explicitly as "i64" when asked.
var kindParams = [...]string{
	KindInt64:   "i64",
	KindFloat64: "f64",
	KindRecord:  "rec",
}

// Valid reports whether k is a known stream kind.
func (k Kind) Valid() bool { return int(k) < len(kindMagics) }

func (k Kind) String() string {
	if !k.Valid() {
		return fmt.Sprintf("wire.Kind(%d)", uint8(k))
	}
	return kindParams[k]
}

// ContentTypeFor reports the HTTP media type announcing a stream of kind
// k: the bare ContentType for int64 (wire-compatible with pre-typed
// peers), with a kind parameter otherwise.
func ContentTypeFor(k Kind) string {
	if k == KindInt64 {
		return ContentType
	}
	return ContentType + "; kind=" + kindParams[k]
}

// KindFromContentType parses an HTTP media type and reports the stream
// kind it announces. ok is false when the type is not the wire format at
// all or names an unknown kind. A bare ContentType (no kind parameter)
// is KindInt64.
func KindFromContentType(ct string) (Kind, bool) {
	mediaType, params, err := mime.ParseMediaType(ct)
	if err != nil || mediaType != ContentType {
		return 0, false
	}
	v, present := params["kind"]
	if !present {
		return KindInt64, true
	}
	return ParseKind(v)
}

// ParseKind resolves a key kind's name ("i64", "f64", "rec"), the form it
// takes as the media-type parameter and as a request's key_type.
func ParseKind(name string) (Kind, bool) {
	for k, n := range kindParams {
		if name == n {
			return Kind(k), true
		}
	}
	return 0, false
}
