package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"knlmlm/internal/wire"
)

// Input generation and result verification. Everything is drawn from
// the seed here in the driver; the servers receive only bytes. The
// checks deliberately use nothing from internal/psort, so a kernel bug
// cannot hide in a shared helper.

type order int

const (
	orderRandom order = iota
	orderSorted
	orderReverse
	orderFewUnique
)

func (o order) String() string {
	return [...]string{"random", "sorted", "reverse", "few-unique"}[o]
}

// input is one pre-generated job: the encoded request body plus what is
// needed to verify any correct answer to it.
type input struct {
	kind     wire.Kind
	ord      order
	cells    int  // payload cells (2 per record)
	json     bool // JSON both ways; i64 only
	deadline bool // carries X-Deadline-Ms

	body        []byte
	contentType string
	sum, xor    uint64

	// raw is kept only for the in-process workload; HTTP workloads send body.
	raw []int64
}

func (in *input) bytes() int64 { return int64(in.cells) * 8 }

func (in *input) String() string {
	enc := "binary"
	if in.json {
		enc = "json"
	}
	return fmt.Sprintf("%s/%s/%d/%s", in.kind, in.ord, in.cells, enc)
}

// f64BitsFromSortable maps an int64 whose signed order is the float64
// total order (-NaN < -Inf < ... < -0 < +0 < ... < +Inf < +NaN) back to
// the IEEE-754 bit pattern; sortableFromF64Bits is its inverse.
func f64BitsFromSortable(s int64) int64 {
	if s < 0 {
		return ^s ^ math.MinInt64 // negative floats: magnitude order reversed
	}
	return s
}

func sortableFromF64Bits(b int64) int64 {
	if b < 0 {
		return ^(b ^ math.MinInt64)
	}
	return b
}

// genKeys draws n keys, in the requested order, in the sortable-int64
// domain. Random keys cover the whole int64 range, so as float bits they
// include NaNs of both signs, infinities, subnormals and both zeros.
func genKeys(rng *rand.Rand, n int, ord order) []int64 {
	ks := make([]int64, n)
	switch ord {
	case orderRandom:
		for i := range ks {
			ks[i] = int64(rng.Uint64())
		}
	case orderSorted, orderReverse:
		// Strictly monotone: positive random gaps from a low start,
		// bounded so the walk cannot overflow.
		gap := int64(math.MaxInt64/2) / int64(n)
		v := int64(math.MinInt64 / 4)
		for i := range ks {
			v += 1 + rng.Int63n(gap)
			if ord == orderSorted {
				ks[i] = v
			} else {
				ks[n-1-i] = v
			}
		}
	case orderFewUnique:
		var vals [16]int64
		for i := range vals {
			vals[i] = int64(rng.Uint64())
		}
		for i := range ks {
			ks[i] = vals[rng.Intn(len(vals))]
		}
	}
	return ks
}

// genCells builds the payload cells of one job: cells counts 8-byte
// cells, so a record job holds cells/2 records.
func genCells(rng *rand.Rand, kind wire.Kind, ord order, cells int) []int64 {
	switch kind {
	case wire.KindFloat64:
		ks := genKeys(rng, cells, ord)
		if ord == orderRandom && cells >= 8 {
			// Pin the awkward values in, whatever the seed drew.
			for i, f := range []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
				ks[i] = sortableFromF64Bits(int64(math.Float64bits(f)))
			}
			rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		}
		for i, s := range ks {
			ks[i] = f64BitsFromSortable(s)
		}
		return ks
	case wire.KindRecord:
		ks := genKeys(rng, cells/2, ord)
		out := make([]int64, cells)
		for i, k := range ks {
			out[2*i], out[2*i+1] = k, int64(rng.Uint64())
		}
		return out
	}
	return genKeys(rng, cells, ord)
}

// recordMix folds a record into one word so that a payload delivered
// with the wrong key changes the fingerprint.
func recordMix(key, payload int64) uint64 {
	h := uint64(key)*0x9E3779B97F4A7C15 ^ uint64(payload)
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// fingerprint is the order-independent checksum of a job's elements:
// the wrapping sum and the xor of every cell (of every mixed record).
// Computed at generation and again on the result, it shows the result
// to be a permutation of the input without keeping the input.
func fingerprint(kind wire.Kind, cells []int64) (sum, xor uint64) {
	if kind == wire.KindRecord {
		for i := 0; i+1 < len(cells); i += 2 {
			h := recordMix(cells[i], cells[i+1])
			sum += h
			xor ^= h
		}
		return sum, xor
	}
	for _, c := range cells {
		sum += uint64(c)
		xor ^= uint64(c)
	}
	return sum, xor
}

var (
	errNotSorted   = errors.New("result not sorted")
	errNotPermuted = errors.New("result is not a permutation of the input")
	errWrongCount  = errors.New("result has the wrong element count")
)

// verify checks a result against its input: same count, nondecreasing
// under the key type's total order, and the same fingerprint.
func verify(in *input, got []int64) error {
	if len(got) != in.cells {
		return fmt.Errorf("%w: got %d cells, want %d", errWrongCount, len(got), in.cells)
	}
	switch in.kind {
	case wire.KindFloat64:
		for i := 1; i < len(got); i++ {
			if sortableFromF64Bits(got[i]) < sortableFromF64Bits(got[i-1]) {
				return fmt.Errorf("%w at float %d", errNotSorted, i)
			}
		}
	case wire.KindRecord:
		for i := 2; i < len(got); i += 2 {
			if got[i] < got[i-2] {
				return fmt.Errorf("%w at record %d", errNotSorted, i/2)
			}
		}
	default:
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return fmt.Errorf("%w at key %d", errNotSorted, i)
			}
		}
	}
	if sum, xor := fingerprint(in.kind, got); sum != in.sum || xor != in.xor {
		return errNotPermuted
	}
	return nil
}

// newInput generates one job and pre-encodes its request body, so the
// load generator does no encoding inside the timed window.
func newInput(rng *rand.Rand, kind wire.Kind, ord order, cells int, asJSON, deadline, keepRaw bool) *input {
	raw := genCells(rng, kind, ord, cells)
	in := &input{kind: kind, ord: ord, cells: cells, json: asJSON, deadline: deadline}
	in.sum, in.xor = fingerprint(kind, raw)
	if asJSON {
		b := make([]byte, 0, cells*21+32)
		b = append(b, `{"wait":true,"keys":[`...)
		for i, v := range raw {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		in.body = append(b, "]}"...)
		in.contentType = "application/json"
	} else {
		in.body = wire.EncodeKind(nil, kind, raw, 0)
		in.contentType = wire.ContentTypeFor(kind)
	}
	if keepRaw {
		in.raw = raw
	}
	return in
}

// readJSONInts parses a JSON array of integers from r into dst without
// building an intermediate value, and reports how many it read.
func readJSONInts(r *bufio.Reader, dst []int64) (int, error) {
	n, inNum, neg := 0, false, false
	var v uint64
	open, closed := false, false
	for {
		c, err := r.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		switch {
		case c >= '0' && c <= '9':
			v, inNum = v*10+uint64(c-'0'), true
			continue
		case c == '-':
			neg = true
			continue
		}
		if inNum {
			if n == len(dst) {
				return n, errWrongCount
			}
			if neg {
				dst[n] = -int64(v)
			} else {
				dst[n] = int64(v)
			}
			n++
			v, inNum, neg = 0, false, false
		}
		switch c {
		case '[':
			open = true
		case ']':
			closed = true
		case ',', ' ', '\n', '\r', '\t':
		default:
			return n, fmt.Errorf("unexpected byte %q in JSON result", c)
		}
	}
	if !open || !closed {
		return n, errors.New("truncated JSON result")
	}
	return n, nil
}
