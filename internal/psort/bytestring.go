package psort

// Byte-string key kernels: MSD (most-significant-digit-first) radix sort
// with a multikey-quicksort fallback on small buckets.
//
// Variable-length keys invert the int64 kernel's shape: LSD radix needs
// a fixed digit count, so strings sort MSD — partition on byte 0, then
// recursively on byte 1 within each bucket, and so on. Each level is a
// counting scatter exactly like the LSD passes (histogram, prefix sum,
// stable out-of-place scatter through the same kind of tiled write buffers), but
// recursion stops per bucket as soon as it is trivially small: below
// msdCutoff elements the O(256)-bucket bookkeeping costs more than
// comparisons, so small buckets finish with Bentley–Sedgewick multikey
// quicksort, which inspects one byte per partition and never re-compares
// the prefix the radix levels already settled. Runs of strings sharing a
// long common prefix advance depth without scattering (the
// single-occupied-bucket skip, MSD edition).
//
// The sort orders by bytes.Compare semantics: lexicographic byte order,
// with a proper prefix sorting before its extensions. It permutes the
// slice headers only — string bytes are never copied or modified — and
// is NOT stable: equal keys are byte-identical, but their slice headers
// may come out in either order.

// msdCutoff is the bucket size below which MSD recursion hands off to
// multikey quicksort; under a few dozen strings the per-level histogram
// (257 counters) dominates the comparison cost it saves.
const msdCutoff = 48

// strInsertionMax is the size below which multikey quicksort finishes
// with suffix insertion sort.
const strInsertionMax = 12

// strTileMinLen is the bucket size at which the MSD scatter switches to
// the tiled write buffers (see radixTileMinLen for the tradeoff). Slice
// headers are 3 words (24 bytes), so this is a 24 MiB destination; unlike
// radixTileMinLen the value has not been swept on the tuning host.
const strTileMinLen = 1 << 20

// strTileLine is the per-bucket staging capacity in slice headers:
// 16 headers is six cache lines per flush at a ~96 KiB stage array,
// matching the cache budget of the int64 kernel's stage. Must stay a
// power of two (masked fill index) and below 256 (uint8 fill counters).
const strTileLine = 16

// SortByteStrings sorts ss ascending in bytes.Compare order, allocating
// MSD scatter scratch when the input is large enough to want it. Hot
// paths should use SortByteStringsScratch with pooled scratch.
func SortByteStrings(ss [][]byte) {
	if len(ss) < 2 {
		return
	}
	if len(ss) < msdCutoff {
		multikeyQuicksort(ss, 0)
		return
	}
	SortByteStringsScratch(ss, make([][]byte, len(ss)))
}

// SortByteStringsScratch sorts ss ascending in bytes.Compare order using
// scratch as the MSD scatter buffer; scratch may be nil or short, in
// which case every level falls back to multikey quicksort. The sort
// performs no allocation. Scratch contents on return are unspecified.
func SortByteStringsScratch(ss, scratch [][]byte) {
	if len(ss) < 2 {
		return
	}
	if len(ss) < msdCutoff || len(scratch) < len(ss) {
		multikeyQuicksort(ss, 0)
		return
	}
	msdRadix(ss, scratch[:len(ss)], 0, strTileMinLen)
}

// strByteAt reports string s's byte at depth d in bucket order: bucket 0
// means s is exhausted (len(s) == d, sorting proper prefixes first) and
// byte value b maps to bucket b+1.
func strByteAt(s []byte, d int) int {
	if d < len(s) {
		return int(s[d]) + 1
	}
	return 0
}

// msdRadix sorts ss by bytes at depth and beyond; len(scratch) >= len(ss)
// and every string has at least depth bytes. Iterates depth forward when
// a level does not discriminate (shared prefix) instead of recursing.
// tileMin is the bucket size at which scatters go through the tiled
// write buffers (strTileMinLen in production; tests lower it to force
// the tiled path on small inputs).
func msdRadix(ss, scratch [][]byte, depth, tileMin int) {
	n := len(ss)
	for {
		var counts [257]int
		for _, s := range ss {
			counts[strByteAt(s, depth)]++
		}
		// Shared-byte skip: if every string agrees on this byte and none
		// is exhausted, advance depth without scattering.
		if probe := strByteAt(ss[0], depth); counts[probe] == n {
			if probe == 0 {
				return // all equal: identical strings, done
			}
			depth++
			continue
		}
		// Exclusive prefix sum turns counts into write cursors; after the
		// scatter each cursor has advanced to its bucket's end offset,
		// which is exactly what the recursion walk below needs.
		var sum int
		for b := 0; b < 257; b++ {
			cnt := counts[b]
			counts[b] = sum
			sum += cnt
		}
		cursors := counts
		if n >= tileMin {
			msdScatterTiled(ss, scratch[:n], &cursors, depth)
		} else {
			for _, s := range ss {
				b := strByteAt(s, depth)
				scratch[cursors[b]] = s
				cursors[b]++
			}
		}
		copy(ss, scratch[:n])
		// Bucket 0 (exhausted strings) is fully sorted; recurse into the
		// rest using the advanced cursors as bucket end offsets.
		start := cursors[0]
		for b := 1; b < 257; b++ {
			end := cursors[b]
			if sz := end - start; sz > 1 {
				if sz < msdCutoff {
					multikeyQuicksort(ss[start:end], depth+1)
				} else {
					msdRadix(ss[start:end], scratch[:sz], depth+1, tileMin)
				}
			}
			start = end
		}
		return
	}
}

// msdScatterTiled is radixScatterTiled's discipline for strings:
// per-bucket staging of slice headers flushed in bursts, FIFO per bucket.
// It is kept apart from the cell kernel on purpose. Its elements hold
// pointers, so they cannot be viewed as int64 cells behind the garbage
// collector's back; it has 257 buckets (exhausted strings take bucket
// 0), not 256; and its digit indexes a byte string at a depth instead of
// shifting a word. Sharing the stage-and-flush loop would mean passing
// the digit in as a function, a call per element in both kernels.
func msdScatterTiled(src, dst [][]byte, c *[257]int, depth int) {
	var stage [257][strTileLine][]byte
	var fill [257]uint8
	for _, s := range src {
		b := strByteAt(s, depth)
		f := fill[b]
		stage[b][f&(strTileLine-1)] = s
		f++
		if f == strTileLine {
			pos := c[b]
			copy(dst[pos:pos+strTileLine], stage[b][:])
			c[b] = pos + strTileLine
			fill[b] = 0
		} else {
			fill[b] = f
		}
	}
	for b := 0; b < 257; b++ {
		if f := int(fill[b]); f > 0 {
			pos := c[b]
			copy(dst[pos:pos+f], stage[b][:f])
			c[b] = pos + f
		}
	}
}

// multikeyQuicksort is Bentley–Sedgewick three-way radix quicksort:
// ternary partition on the byte at depth, recurse < and > at the same
// depth, and the == band one byte deeper. Every string has at least
// depth bytes.
func multikeyQuicksort(ss [][]byte, depth int) {
	for len(ss) > strInsertionMax {
		// Median-of-three pivot byte keeps the partition balanced on
		// sorted and organ-pipe inputs.
		p := medianByte(
			strByteAt(ss[0], depth),
			strByteAt(ss[len(ss)/2], depth),
			strByteAt(ss[len(ss)-1], depth),
		)
		lt, i, gt := 0, 0, len(ss)
		for i < gt {
			switch c := strByteAt(ss[i], depth); {
			case c < p:
				ss[i], ss[lt] = ss[lt], ss[i]
				lt++
				i++
			case c > p:
				gt--
				ss[i], ss[gt] = ss[gt], ss[i]
			default:
				i++
			}
		}
		multikeyQuicksort(ss[:lt], depth)
		if p > 0 {
			multikeyQuicksort(ss[lt:gt], depth+1)
		}
		ss = ss[gt:]
	}
	insertionByteStrings(ss, depth)
}

// medianByte reports the median of three bucket-order byte values.
func medianByte(a, b, c int) int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// insertionByteStrings finishes tiny partitions comparing suffixes from
// depth (the shared prefix below depth is already settled).
func insertionByteStrings(ss [][]byte, depth int) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && suffixLess(ss[j], ss[j-1], depth); j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// suffixLess reports whether a[depth:] < b[depth:] in byte order.
func suffixLess(a, b []byte, depth int) bool {
	for d := depth; ; d++ {
		ca, cb := strByteAt(a, d), strByteAt(b, d)
		if ca != cb {
			return ca < cb
		}
		if ca == 0 {
			return false // both exhausted: equal
		}
	}
}
