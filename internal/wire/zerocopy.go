package wire

import (
	"encoding/binary"
	"unsafe"
)

// zeroCopy is whether []int64 memory is the wire representation: on a
// little-endian host, reinterpreting the backing array yields exactly
// the length-prefixed payload bytes. It is read from the host's byte
// order once, at init; tests clear it to run the portable
// encoding/binary path, which produces byte-identical streams, on the
// same build.
var zeroCopy = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// int64Bytes returns s's backing memory as a byte slice (len(s)*8
// bytes), without copying. The view aliases s: it is valid only while s
// is, and writes through it are writes to s. Only the zero-copy path
// calls it.
func int64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}
