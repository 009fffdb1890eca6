package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// forcePortable makes the codec take its portable encoding/binary path,
// the one big-endian hosts take, until the returned func restores the
// host's path.
func forcePortable() (restore func()) {
	saved := zeroCopy
	zeroCopy = false
	return func() { zeroCopy = saved }
}

// TestZeroCopyMatchesPortable pins the two encode/decode paths to each
// other at the byte level: every exported conversion and the framed
// Encode/Decode run on the host's path (zero-copy on little-endian
// hosts) and again through forcePortable, and must agree.
func TestZeroCopyMatchesPortable(t *testing.T) {
	t.Logf("zeroCopy = %v", zeroCopy)
	rng := rand.New(rand.NewSource(7))
	cases := [][]int64{
		nil,
		{},
		{0},
		{1},
		{-1},
		{math.MinInt64},
		{math.MaxInt64},
		{math.MinInt64, -1, 0, 1, math.MaxInt64},
	}
	for _, n := range []int{2, 3, 15, 255, 4097} { // odd lengths included
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63() - rng.Int63()
		}
		cases = append(cases, v)
	}
	// run encodes keys every way the codec can and decodes the results.
	type result struct {
		enc, app, framed []byte
		dec, unframed    []int64
	}
	run := func(keys []int64) (r result) {
		r.enc = make([]byte, len(keys)*8)
		EncodeInt64s(r.enc, keys)
		r.app = AppendInt64s(nil, keys)
		r.framed = Encode(nil, keys, 5)
		r.dec = make([]int64, len(keys))
		DecodeInt64s(r.dec, r.enc)
		var err error
		if r.unframed, err = Decode(bytes.NewReader(r.framed), 0, nil); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		return r
	}
	for ci, keys := range cases {
		host := run(keys)
		restore := forcePortable()
		port := run(keys)
		restore()
		if !bytes.Equal(host.enc, port.enc) || !bytes.Equal(host.app, port.app) || !bytes.Equal(host.app, host.enc) {
			t.Fatalf("case %d (%d keys): EncodeInt64s/AppendInt64s differ between the paths", ci, len(keys))
		}
		if !bytes.Equal(host.framed, port.framed) {
			t.Fatalf("case %d (%d keys): Encode differs between the paths", ci, len(keys))
		}
		for i := range keys {
			if host.dec[i] != keys[i] || port.dec[i] != keys[i] || host.unframed[i] != keys[i] || port.unframed[i] != keys[i] {
				t.Fatalf("case %d key %d: decode host=%d/%d portable=%d/%d want %d",
					ci, i, host.dec[i], host.unframed[i], port.dec[i], port.unframed[i], keys[i])
			}
		}
	}
}

// TestPortablePath runs the codec's writer, reader and conversion tests
// again on the portable path, so the ordinary build covers both.
func TestPortablePath(t *testing.T) {
	if !zeroCopy {
		t.Skip("the host's path is the portable one")
	}
	defer forcePortable()()
	for _, tc := range []struct {
		name string
		f    func(*testing.T)
	}{
		{"WriterMatchesReference", TestWriterMatchesReference},
		{"WriterUnevenBatchesRoundTrip", TestWriterUnevenBatchesRoundTrip},
		{"RoundTrip", TestRoundTrip},
		{"ReadBatchAcrossFrames", TestReadBatchAcrossFrames},
		{"BulkConversions", TestBulkConversions},
		{"EncodeReaderMatchesEncode", TestEncodeReaderMatchesEncode},
		{"ReaderOneByteReads", TestReaderOneByteReads},
		{"ReaderHalfReads", TestReaderHalfReads},
		{"ReaderEveryBoundarySplit", TestReaderEveryBoundarySplit},
		{"ReaderBatchCrossesFrames", TestReaderBatchCrossesFrames},
		{"ReaderTruncationAtEveryOffset", TestReaderTruncationAtEveryOffset},
		{"ReaderEmptyStreamShortReads", TestReaderEmptyStreamShortReads},
		{"ReaderTrailingDataAfterSplitEnd", TestReaderTrailingDataAfterSplitEnd},
		{"ReaderErrReaderPropagates", TestReaderErrReaderPropagates},
		{"KindRoundTripStreams", TestKindRoundTripStreams},
	} {
		t.Run(tc.name, tc.f)
	}
}
