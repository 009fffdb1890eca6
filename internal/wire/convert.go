package wire

import "encoding/binary"

// Bulk []int64 ↔ little-endian byte conversions. On little-endian hosts
// each is a single memmove of the backing arrays; the portable path
// loops through encoding/binary. Both produce identical bytes — the
// differential tests pin this by running the portable implementations
// against the zero-copy path. These are exported for the spill tier,
// whose run files share the wire's byte layout.

// EncodeInt64s writes src's little-endian encoding into dst, which must
// hold exactly 8*len(src) bytes.
func EncodeInt64s(dst []byte, src []int64) {
	if len(dst) != len(src)*8 {
		panic("wire: EncodeInt64s size mismatch")
	}
	if zeroCopy {
		copy(dst, int64Bytes(src))
		return
	}
	encodeInt64sPortable(dst, src)
}

// AppendInt64s appends src's little-endian encoding to dst.
func AppendInt64s(dst []byte, src []int64) []byte {
	if zeroCopy {
		return append(dst, int64Bytes(src)...)
	}
	return appendInt64sPortable(dst, src)
}

// DecodeInt64s fills dst from src's little-endian bytes; src must hold
// exactly 8*len(dst) bytes.
func DecodeInt64s(dst []int64, src []byte) {
	if len(src) != len(dst)*8 {
		panic("wire: DecodeInt64s size mismatch")
	}
	if zeroCopy {
		copy(int64Bytes(dst), src)
		return
	}
	decodeInt64sPortable(dst, src)
}

// The portable implementations: the whole codec on big-endian hosts,
// and the differential tests' reference on little-endian ones.

func encodeInt64sPortable(dst []byte, src []int64) {
	for i, k := range src {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(k))
	}
}

func appendInt64sPortable(dst []byte, src []int64) []byte {
	for _, k := range src {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(k))
	}
	return dst
}

func decodeInt64sPortable(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
	}
}
