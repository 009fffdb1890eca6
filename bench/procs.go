package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Child processes: the servers under test are built from the tree and
// booted on port 0. The driver owns their whole life: it SIGTERMs them
// to drain, waits for them, and fails the run if one survives, keeps
// its port, or leaves run files behind.

// buildDir is where binaries, logs, spill dirs and traces go: inside
// the checkout, ignored by git.
const buildDir = ".bench_build"

// moduleRoot finds the directory holding this module's go.mod, so the
// driver works from the repository root or from bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module knlmlm\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the knlmlm module (no go.mod found)")
		}
		dir = parent
	}
}

// buildBinaries compiles the two servers from the tree.
func buildBinaries(root string) (serveBin, coordBin string, took time.Duration, err error) {
	t0 := time.Now()
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", 0, err
	}
	// One go build for both: the second invocation cost as much again as
	// the first, about a second of every run even with nothing to compile.
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/mlmserve", "./cmd/mlmcoord")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", "", 0, fmt.Errorf("go build ./cmd/mlmserve ./cmd/mlmcoord: %w", err)
	}
	return filepath.Join(bin, "mlmserve"), filepath.Join(bin, "mlmcoord"), time.Since(t0), nil
}

// child is one server process.
type child struct {
	name string
	args []string
	cmd  *exec.Cmd
	addr string // host:port it reported
	log  string
}

func (c *child) url() string { return "http://" + c.addr }

func (c *child) commandLine() string {
	return filepath.Base(c.cmd.Path) + " " + strings.Join(c.args, " ")
}

// startChild boots bin and waits for its "listening on <addr>" line.
func startChild(bin, name, logPath string, args ...string) (*child, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	err = cmd.Start()
	lf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, err
	}
	c := &child{name: name, args: args, cmd: cmd, log: logPath}
	deadline := time.Now().Add(20 * time.Second)
	for {
		raw, _ := os.ReadFile(logPath)
		if _, rest, ok := strings.Cut(string(raw), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				c.addr = addr
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			return nil, fmt.Errorf("%s never listened; log:\n%s", name, raw)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the child with SIGTERM and waits for it. A child that
// outlives the grace period is killed and reported: a benchmark that
// leaks a server would poison the next run's numbers.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", c.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			raw, _ := os.ReadFile(c.log)
			return fmt.Errorf("%s exited uncleanly: %w; log:\n%s", c.name, err, raw)
		}
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s survived SIGTERM for 20s and was killed", c.name)
	}
	// The port must be free again.
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("%s: port %s still bound after exit: %w", c.name, c.addr, err)
	}
	return ln.Close()
}

// dirEmpty reports an error naming what is left in dir.
func dirEmpty(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(ents) > 0 {
		return fmt.Errorf("spill dir %s not empty after drain: %s and %d more", dir, ents[0].Name(), len(ents)-1)
	}
	return nil
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat; Linux fixes
// it at 100 for user space on every architecture Go supports.
const userHZ = 100

// procCPU is a process's user+system CPU seconds so far.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after the last ')'.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // utime, field 14
	st, err2 := strconv.ParseFloat(f[12], 64) // stime, field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return (ut + st) / userHZ, nil
}

// procPeakRSS is a process's VmHWM in MiB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is this process's user+system CPU seconds, at microsecond
// resolution (the in-process workload is measured with it).
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostJiffies reads the aggregate cpu line of /proc/stat: the time this
// VM's CPUs spent running (busy), the time the hypervisor ran someone
// else while they had work (steal), and the sum of every state, idle
// included. Zeros where the file is missing.
func hostJiffies() (busy, steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time (the
	// two fields after) is already inside user and nice.
	var v [8]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[1+i], 64); err != nil {
			return 0, 0, 0
		}
		total += v[i]
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], total
}

// fsType names the filesystem holding path, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
