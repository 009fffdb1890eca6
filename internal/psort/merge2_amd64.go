//go:build amd64

package psort

// vectorMerge is whether merge2 hands bare keys to merge2AVX512: the CPU
// has AVX-512F and the OS saves the ZMM and mask registers. It is read
// from the CPU's feature bits once, at init; tests clear it to run the
// scalar fallback on the same build.
var vectorMerge = hasAVX512()

// hasAVX512 reports AVX-512F through CPUID and the OS's saved register
// state through XGETBV.
func hasAVX512() bool

// merge2AVX512 merges the sorted bare-key runs a and b into dst, 8 keys
// at a time, while both hold a block of vectorBlock keys it has not
// loaded. It keeps the 8 largest keys loaded so far in a register (the
// carry), and each step merges the next block into it with a bitonic
// network, writing the 8 smallest. The next block comes from the run
// with the smaller head, chosen with CMOV. It returns the keys loaded
// from each run, i and j, having written the i+j-vectorBlock smallest of
// them; the carry is not written. It stops early, before merging it, on
// a block that lies wholly at or before the other run's head and wholly
// at or above the carry. len(a) and len(b) must be at least vectorBlock
// and dst must have room for both.
//
//go:noescape
func merge2AVX512(dst, a, b [][1]int64) (i, j int)
