//go:build !amd64

package psort

// vectorMerge is false off amd64: there is no vector kernel for this
// platform, and merge2 takes the scalar path.
var vectorMerge bool

// merge2AVX512 is never called when vectorMerge is false; this stub
// keeps the shared code compiling.
func merge2AVX512(dst, a, b [][1]int64) (i, j int) { panic("psort: no vector merge on this platform") }
