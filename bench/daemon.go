package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind: the daemon binary, the
// daemon's stderr, checkpoint files, traces and the result file. It is
// relative to the repository root, where the benchmark must be started.
const outDir = "bench/out"

// buildDaemon compiles the program under test from the checkout the
// benchmark runs in and reports how long that took. The go tool's build
// cache makes every build after the first a no-op.
func buildDaemon() (bin string, took time.Duration, err error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", 0, errors.New("run from the repository root (no go.mod here)")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err = filepath.Abs(filepath.Join(outDir, "soar-naasd"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/soar-naasd").CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/soar-naasd: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// daemon is one running soar-naasd child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// children tracks every live daemon so that a signal or an early return
// can kill them all; no exit path may leave one behind.
var children struct {
	sync.Mutex
	live map[*daemon]struct{}
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for d := range children.live {
		d.cmd.Process.Kill()
		<-d.done
	}
	children.live = nil
}

// freeAddr finds an unused loopback port below the kernel's ephemeral
// range. A port from that range (net.Listen on :0) can be taken again
// before the daemon binds it: a sharded daemon first dials its 16
// standbys, and each dial draws an ephemeral source port.
func freeAddr() (string, error) {
	low := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		fmt.Sscan(string(b), &low)
	}
	var err error
	for try := 0; try < 64; try++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", low/2+rand.Intn(low/2))); err == nil {
			defer ln.Close()
			return ln.Addr().String(), nil
		}
	}
	return "", err
}

// readyDeadline bounds exec → /v1/readyz 200; pollEvery is how often
// readiness is asked for.
const (
	readyDeadline = 10 * time.Second
	pollEvery     = 250 * time.Microsecond
)

// startDaemon execs bin with args on a free port, appends its output to
// logPath, and returns once /v1/readyz answers 200. The returned
// duration is exec → ready.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	children.Lock()
	if children.live == nil {
		children.live = make(map[*daemon]struct{})
	}
	children.live[d] = struct{}{}
	children.Unlock()

	// A start takes a few milliseconds, so the poll must be much finer
	// than time.Sleep's millisecond.
	clock, err := newAlarm()
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	defer clock.f.Close()
	hc := &http.Client{Timeout: time.Second}
	for time.Since(t0) < readyDeadline {
		select {
		case <-d.done:
			d.forget()
			return nil, 0, fmt.Errorf("soar-naasd exited before it was ready: see %s", logPath)
		default:
		}
		resp, err := hc.Get(d.base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, time.Since(t0), nil
			}
		}
		clock.wait(pollEvery)
	}
	d.kill()
	return nil, 0, fmt.Errorf("soar-naasd not ready within %v: see %s", readyDeadline, logPath)
}

func (d *daemon) forget() {
	children.Lock()
	delete(children.live, d)
	children.Unlock()
	d.log.Close()
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.forget()
}

// stop sends SIGTERM — the daemon's graceful path, which writes the
// final checkpoint — and waits for the process to end.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		d.forget()
		return nil
	case <-time.After(readyDeadline):
		d.kill()
		return errors.New("soar-naasd ignored SIGTERM; killed")
	}
}

// cpuMs returns the CPU time the daemon's threads have run so far: the
// sum of the first field of /proc/<pid>/task/*/schedstat, which counts
// nanoseconds. A kernel built without scheduler statistics has no such
// file; there utime+stime of /proc/<pid>/stat stand in, which count 10 ms
// ticks — three per cent of what a one-second window of the reference
// rung uses.
func (d *daemon) cpuMs() (float64, error) {
	pid := d.cmd.Process.Pid
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if len(tasks) == 0 {
		return cpuTicksMs(pid)
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		var run float64
		if _, err := fmt.Sscan(string(b), &run); err != nil {
			return 0, fmt.Errorf("%s: %q: %w", t, b, err)
		}
		ns += run
	}
	return ns / 1e6, nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

func cpuTicksMs(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// hwmMB returns the daemon's peak resident set size (VmHWM).
func (d *daemon) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
