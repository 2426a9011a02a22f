package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// buildServer compiles cmd/piftrun from the tree under test into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "piftrun")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/piftrun")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building piftrun: %w", err)
	}
	return bin, nil
}

// serverProc is one running piftrun -serve process.
type serverProc struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	spillDir string
	exited   chan struct{}
}

// probePause is the pause between /healthz probes while a server
// starts. A probe of a port nobody listens on yet fails in tens of
// microseconds, so the pause sets how finely setup time is resolved.
const probePause = 50 * time.Microsecond

// startServer spawns piftrun -serve with default flags apart from the
// deployment settings (address, a fresh spill dir, and extra, e.g. a
// spill budget) and returns once /healthz answers 200, with the time
// that took.
func startServer(bin, spillDir string, extra ...string) (*serverProc, time.Duration, error) {
	if err := os.RemoveAll(spillDir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-serve", "-http", addr, "-spill-dir", spillDir}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	// If the benchmark dies without stopping the server, the kernel
	// kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting piftrun: %w", err)
	}
	sp := &serverProc{cmd: cmd, base: "http://" + addr, spillDir: spillDir, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(sp.exited)
	}()
	probe := &http.Client{
		Timeout:   time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := probe.Get(sp.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, time.Since(start), nil
			}
		}
		select {
		case <-sp.exited:
			return nil, 0, errors.New("piftrun exited before /healthz answered")
		default:
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, 0, errors.New("piftrun: no 200 from /healthz within 30s")
		}
		time.Sleep(probePause)
	}
}

// freeAddr picks a free loopback port for the server to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 10s)
// and removes its spill dir.
func (sp *serverProc) stop() {
	sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sp.exited:
	case <-time.After(10 * time.Second):
		sp.cmd.Process.Kill()
		<-sp.exited
	}
	os.RemoveAll(sp.spillDir)
}

// hostSteal returns the machine's stolen and total CPU time so far, in
// clock ticks, from the first line of /proc/stat: time the hypervisor
// ran something else while this machine's virtual CPUs wanted to run.
func hostSteal() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// procCPU returns the server's user+system CPU time.
func (sp *serverProc) procCPU() (time.Duration, error) { return processCPU(sp.cmd.Process.Pid) }

// processCPU returns a process's user+system CPU time from
// /proc/<pid>/stat (all threads, including exited ones).
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	const clockTick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * clockTick, nil
}

// cpuDuring reads the process's CPU time at t0 and at t0+d, in the
// background. The returned function waits for the second reading and
// returns the CPU time spent in between.
func (sp *serverProc) cpuDuring(t0 time.Time, d time.Duration) func() (time.Duration, error) {
	type reading struct {
		cpu time.Duration
		err error
	}
	done := make(chan reading, 1)
	go func() {
		start, err := sp.procCPU()
		if err != nil {
			done <- reading{err: err}
			return
		}
		time.Sleep(time.Until(t0.Add(d)))
		end, err := sp.procCPU()
		done <- reading{end - start, err}
	}()
	return func() (time.Duration, error) {
		r := <-done
		return r.cpu, r.err
	}
}

// peakRSSMB returns VmHWM, the process's peak resident set, in MiB.
func (sp *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the server's metrics registry from /metrics.json, the
// JSON rendering of /metrics.
func (sp *serverProc) scrape() (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	c := newClient(sp.base, 1)
	defer c.close()
	status, err := c.getJSON("/metrics.json", &snap)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/metrics.json: status %d", status)
	}
	return snap, err
}
