package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// detach makes a child die with the harness, so a killed benchmark
// leaves no gprofd behind.
func detach(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// cliRun is one gprof invocation seen from outside: wall time, the
// rusage the kernel reports, and a digest of everything it printed.
type cliRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
	digest string        // SHA-256 of stdout
	bytes  int64         // stdout length
}

// runCLI runs gprof with args, hashing its stdout as it streams in; the
// listing is never written to disk.
func runCLI(ctx context.Context, gprof string, args ...string) (cliRun, error) {
	var r cliRun
	// Go starts a child with vfork, and the kernel carries the parent's
	// peak RSS into the child's Maxrss at exec. Returning the harness's
	// free memory and resetting its own peak first leaves gprof's peak
	// as the larger of the two.
	debug.FreeOSMemory()
	if err := resetPeakRSS("self"); err != nil {
		return r, err
	}
	cmd := exec.CommandContext(ctx, gprof, args...)
	detach(cmd)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	h := sha256.New()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	r.bytes, err = io.Copy(h, out)
	if werr := cmd.Wait(); werr != nil {
		err = fmt.Errorf("gprof %s: %w: %s", strings.Join(args, " "), werr, bytes.TrimSpace(stderr.Bytes()))
	}
	r.wall = time.Since(start)
	if err != nil {
		return r, err
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return r, errors.New("no rusage for gprof")
	}
	r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// server is a running gprofd process and the harness's client for it;
// the echo reference server reuses the client half.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	stderr bytes.Buffer
}

// maxConns bounds the harness's HTTP connections to one server.
const maxConns = 2

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

// startServer starts gprofd on a free loopback port with a one-hour
// window, so every upload of a run lands in one window, and waits until
// /readyz answers. flags are passed on to gprofd.
func startServer(ctx context.Context, bin string, jobs int, flags ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{
		base:   "http://" + addr,
		exited: make(chan struct{}),
		client: newClient(),
	}
	args := append([]string{"-addr", addr, "-window", "1h", "-jobs", strconv.Itoa(jobs)}, flags...)
	s.cmd = exec.Command(filepath.Join(bin, "gprofd"), args...)
	detach(s.cmd)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if status, _, err := s.get(ctx, "/readyz"); err == nil && status == http.StatusOK {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("gprofd exited before it was ready: %s", bytes.TrimSpace(s.stderr.Bytes()))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("gprofd not ready after 20s")
		}
	}
}

// stop interrupts gprofd (its graceful drain), kills it if the drain
// hangs, and returns once the process has exited.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
}

func (s *server) do(ctx context.Context, method, path string, body []byte, fp string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if fp != "" {
		req.Header.Set("X-Gprof-Fingerprint", fp)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *server) get(ctx context.Context, path string) (int, []byte, error) {
	return s.do(ctx, http.MethodGet, path, nil, "")
}

// doFunc sends one request to a gprofd, over HTTP to the built binary
// or straight to an in-process handler.
type doFunc func(method, path string, body []byte, fp string) (status int, resp []byte, err error)

func (s *server) doer(ctx context.Context) doFunc {
	return func(method, path string, body []byte, fp string) (int, []byte, error) {
		return s.do(ctx, method, path, body, fp)
	}
}

// register uploads an image to a gprofd and returns its fingerprint.
func register(do doFunc, image []byte) (string, error) {
	status, body, err := do(http.MethodPost, "/v1/exe", image, "")
	if err != nil {
		return "", err
	}
	var reg struct{ Fingerprint string }
	if err := json.Unmarshal(body, &reg); err != nil || status != http.StatusOK {
		return "", fmt.Errorf("registering image: status %d: %s", status, body)
	}
	return reg.Fingerprint, nil
}

// cpuSeconds reads gprofd's user + system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}

// peakRSSMB reads gprofd's peak resident set (VmHWM) from /proc.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (s *server) resetPeakRSS() error { return resetPeakRSS(strconv.Itoa(s.cmd.Process.Pid)) }

// resetPeakRSS sets a process's peak resident set (VmHWM) back to its
// current one (clear_refs 5), so the peak read next is the peak since
// the reset. pid is a process id or "self".
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}
