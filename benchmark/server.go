package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod, so the benchmark finds cmd/sqserver from the checkout root (where
// `go run ./benchmark` runs) and from benchmark/ (where `go test` runs).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s: run from inside the repository", dir)
		}
		dir = parent
	}
}

// buildServer compiles cmd/sqserver from the checkout's source into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "sqserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sqserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sqserver: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running sqserver process. Lifecycle rules: it listens on a
// free loopback port chosen just before the spawn, its stderr (one slog
// line per request, whose cost is part of what is measured) goes to a file
// and never to an unread pipe, it is stopped with SIGTERM and waited for,
// and an exit nobody asked for is fatal to the run.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	// exitErr is cmd.Wait's result, readable once exited is closed.
	exitErr error
	// setupSeconds is spawn to first 200 from /healthz: database parse
	// plus Engine.Build.
	setupSeconds float64
}

func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns bin and returns once /healthz answers 200.
func startServer(bin, dbPath, logPath string, flags []string, client *http.Client) (*server, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor after Start
	args := append([]string{"-db", dbPath, "-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sqserver: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.exitErr = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.After(2 * time.Minute)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setupSeconds = time.Since(t0).Seconds()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("sqserver exited during start-up (see %s): %w", logPath, exitError(s.exitErr))
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("sqserver not healthy after 2m; see %s", logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// errCleanExit stands in for cmd.Wait's nil: a server nobody stopped has no
// reason to exit at all, even with status 0.
var errCleanExit = errors.New("exit status 0")

func exitError(err error) error {
	if err == nil {
		return errCleanExit
	}
	return err
}

// alive reports an early exit as an error.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("sqserver exited early: %w", exitError(s.exitErr))
	default:
		return nil
	}
}

// stop sends SIGTERM and waits for the process to end; a server that does
// not drain within its own deadline is killed so no process outlives the
// benchmark.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.exited:
	case <-time.After(40 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// metricsSnapshot is the part of GET /metrics the benchmark reads.
type metricsSnapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

func (s *server) scrape(ctx context.Context, client *http.Client) (metricsSnapshot, error) {
	var snap metricsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return snap, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snap, nil
}

// counter sums the counters whose name is name or starts with name + "/"
// (per-engine counters carry the engine as a suffix).
func (m metricsSnapshot) counter(name string) int64 {
	var sum int64
	for k, v := range m.Counters {
		if k == name || strings.HasPrefix(k, name+"/") {
			sum += v
		}
	}
	return sum
}

// procCPUSeconds reads user+system CPU of a process from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(data)
}

// clockTicks is USER_HZ, 100 on every Linux platform Go supports.
const clockTicks = 100

func parseProcStatCPU(data []byte) (float64, error) {
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", data)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(fields[12], 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// procPeakRSSMB reads VmHWM (peak resident set) from /proc/<pid>/status.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPUSeconds is the generator's own user+system CPU.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuTick is the server's cumulative CPU at one window boundary of a phase.
type cpuTick struct {
	at  float64 // seconds since the watch began
	cpu float64 // cumulative user+system seconds
}

// watchCPU reads the server's CPU when called, then at every window
// boundary, then once more when stop is called; stop returns the ticks.
func watchCPU(pid int, window time.Duration) (stop func() []cpuTick) {
	start := time.Now()
	var ticks []cpuTick
	read := func() {
		if cpu, err := procCPUSeconds(pid); err == nil {
			ticks = append(ticks, cpuTick{at: time.Since(start).Seconds(), cpu: cpu})
		}
	}
	read()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-quit:
				read()
				return
			}
		}
	}()
	return func() []cpuTick {
		close(quit)
		<-done
		return ticks
	}
}
