package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"knlmlm/internal/psort"
)

// The host fingerprint and the three host-speed controls that go in
// every output, so numbers from different machines can be normalised:
// divide a layer's MB/s by host.copy_mbps, a sort's by
// host.serial_sort_mbps.

type fingerprintInfo struct {
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"caches"`
}

func hostFingerprint(root string, seed int64) fingerprintInfo {
	fp := fingerprintInfo{
		Commit: "unknown", Seed: seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Caches: map[string]string{},
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// cpu0's view of the hierarchy: level, type and size of each cache.
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		read := func(name string) string {
			b, _ := os.ReadFile(dir + name)
			return strings.TrimSpace(string(b))
		}
		if lvl := read("level"); lvl != "" {
			name := "L" + lvl
			switch read("type") {
			case "Data":
				name += "d"
			case "Instruction":
				name += "i"
			}
			fp.Caches[name] = read("size")
		}
	}
	return fp
}

func (fp fingerprintInfo) String() string {
	var caches []string
	for _, k := range []string{"L1d", "L1i", "L2", "L3"} {
		if v, ok := fp.Caches[k]; ok {
			caches = append(caches, k+"="+v)
		}
	}
	return fmt.Sprintf("commit=%s seed=%d nproc=%d GOMAXPROCS=%d %s cpu=%q caches[%s]",
		fp.Commit, fp.Seed, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.CPUModel, strings.Join(caches, " "))
}

// hostArrayElems sizes the copy and triad arrays at 64 MiB each: 32x
// the 2 MiB per-core L2 of the host this was written on. Its VM reports
// a 260 MiB L3 that it shares with other tenants, so these are
// sustained rates through the VM's slice of the hierarchy, not a claim
// about DRAM bandwidth.
const hostArrayElems = 8 * mi

// best times fn reps times and returns the fastest: for a bandwidth
// control the minimum is the least disturbed by a shared host.
func best(reps int, fn func()) time.Duration {
	b := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		b = min(b, time.Since(t0))
	}
	return b
}

func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// hostControls measures the three controls. STREAM accounting: copy
// moves 2 arrays' worth of bytes per pass, triad 3.
func hostControls(reps int) map[string]float64 {
	a := make([]int64, hostArrayElems)
	b := make([]int64, hostArrayElems)
	c := make([]int64, hostArrayElems)
	for i := range b {
		b[i], c[i] = int64(i), int64(i)*3
	}
	copyT := best(reps, func() { copy(a, b) })
	triadT := best(reps, func() {
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	})
	xs := make([]int64, mi)
	src := b[:mi]
	// A multiplicative scramble of the index: cheap, deterministic, and
	// random enough that Serial's run detection finds nothing.
	for i := range src {
		src[i] = int64(uint64(i+1) * 0x9E3779B97F4A7C15)
	}
	sortT := best(reps, func() {
		copy(xs, src)
		psort.Serial(xs)
	})
	return map[string]float64{
		"host.copy_mbps":        mbps(2*8*hostArrayElems, copyT),
		"host.triad_mbps":       mbps(3*8*hostArrayElems, triadT),
		"host.serial_sort_mbps": mbps(8*mi, sortT),
	}
}
