package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/privilege"
	"repro/pkg/plusclient"
)

// buildDir is where everything the harness leaves behind goes: the
// plusd binary, per-run data dirs and reports. It sits in the working
// directory (the checkout root) and is git-ignored.
const buildDir = ".bench_build"

// target is one served store under test: a separate-process plusd in
// real runs, an in-process httptest server in -smoke runs and tests.
type target interface {
	URL() string
	// Restart kills the server without warning (kill -9) and brings it
	// back on the same data; it returns once the listener answers.
	Restart() error
	Stop()
	// CPU reports the server's consumed CPU seconds and peak RSS in MB.
	CPU() (cpuSeconds, rssPeakMB float64, err error)
}

// launcher starts targets for one run and remembers them, so a signal
// handler can stop every child and remove every data dir.
type launcher struct {
	// plusd is the built binary; empty selects in-process targets.
	plusd string
	// dir holds the run's data dirs and is removed by cleanup.
	dir string

	mu   sync.Mutex
	live map[target]bool
}

// newLauncher keeps its data dirs under base (buildDir outside tests).
func newLauncher(base, plusd string) (*launcher, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &launcher{plusd: plusd, dir: dir, live: map[target]bool{}}, nil
}

// start brings up a fresh, empty server on the named backend and
// returns once /v1/healthz answers.
func (l *launcher) start(backend string) (target, error) {
	dataDir, err := os.MkdirTemp(l.dir, "server-")
	if err != nil {
		return nil, err
	}
	var t target
	if l.plusd == "" {
		t, err = startInProcess(backend, dataDir)
	} else {
		t, err = startProcess(l.plusd, backend, dataDir)
	}
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.live[t] = true
	l.mu.Unlock()
	return t, nil
}

func (l *launcher) stop(t target) {
	l.mu.Lock()
	delete(l.live, t)
	l.mu.Unlock()
	t.Stop()
}

// cleanup stops every live target and removes the run's data dirs.
func (l *launcher) cleanup() {
	l.mu.Lock()
	live := l.live
	l.live = map[target]bool{}
	l.mu.Unlock()
	for t := range live {
		t.Stop()
	}
	os.RemoveAll(l.dir)
}

// buildPlusd compiles cmd/plusd from the working tree into buildDir.
// The harness must run from the module root: that is where the driver
// and `go run ./cmd/plusbench` both start it.
func buildPlusd() (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "plusd", "main.go")); err != nil {
		return "", fmt.Errorf("run plusbench from the repository root: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "plusd"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/plusd").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/plusd: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr finds a free loopback port by listening on :0 and closing.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// processTarget is a plusd child process with default flags plus
// -backend, -db and -addr.
type processTarget struct {
	bin, backend, dataDir, addr string
	cmd                         *exec.Cmd
	// exited closes once the child has been waited for.
	exited chan struct{}
}

func startProcess(bin, backend, dataDir string) (*processTarget, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &processTarget{bin: bin, backend: backend, dataDir: dataDir, addr: addr}
	if err := p.exec(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *processTarget) exec() error {
	logf, err := os.OpenFile(filepath.Join(p.dataDir, "plusd.stderr"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	p.cmd = exec.Command(p.bin, "-backend", p.backend, "-db", filepath.Join(p.dataDir, "store.log"), "-addr", p.addr)
	p.cmd.Stderr = logf
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start plusd: %w", err)
	}
	exited := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed child carries nothing
		close(exited)
	}()
	p.exited = exited
	if err := waitHealthy(p.URL(), exited); err != nil {
		p.Stop()
		tail, _ := os.ReadFile(filepath.Join(p.dataDir, "plusd.stderr"))
		return fmt.Errorf("plusd on %s: %w\n%s", p.addr, err, tail)
	}
	return nil
}

func (p *processTarget) URL() string { return "http://" + p.addr }

func (p *processTarget) Stop() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.exited
}

func (p *processTarget) Restart() error {
	p.Stop()
	return p.exec()
}

// CPU reads utime+stime from /proc/<pid>/stat (fields 14 and 15, in
// clock ticks of 1/100 s on Linux) and VmHWM from /proc/<pid>/status.
func (p *processTarget) CPU() (float64, float64, error) { return procUsage(p.cmd.Process.Pid) }

func procUsage(pid int) (cpuSeconds, rssPeakMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(rest) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseFloat(rest[11], 64)
	stime, _ := strconv.ParseFloat(rest[12], 64)
	cpuSeconds = (utime + stime) / 100

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				rssPeakMB = kb / 1024
			}
		}
	}
	return cpuSeconds, rssPeakMB, nil
}

// waitHealthy polls /v1/healthz until it answers ok, the process exits
// (exited closed) or 30 s pass.
func waitHealthy(url string, exited <-chan struct{}) error {
	c := plusclient.New(url)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := c.Healthz(ctx)
		cancel()
		if err == nil && h.Status == "ok" {
			return nil
		}
		select {
		case <-exited:
			return fmt.Errorf("exited before answering healthz")
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("no healthz answer within 30s")
}

// assembleServer wires a backend into the HTTP surface exactly as
// cmd/plusd does with default flags: observed backend, cached lineage
// engine, open auth, metrics registry, PLUSQL attached.
func assembleServer(b plus.Backend) http.Handler {
	reg := obs.NewRegistry()
	observed := plus.NewObserveBackend(b, reg)
	lat := privilege.TwoLevel()
	srv := plus.NewCachedServer(plus.NewCachedEngine(plus.NewEngine(observed, lat)),
		plus.WithAuth(plus.AuthConfig{DefaultTTL: plus.DefaultSessionTTL, MaxTTL: plus.DefaultMaxTTL}),
		plus.WithObservability(plus.NewObservability(reg, nil, nil)))
	plusql.Attach(srv, plusql.NewEngine(observed, lat))
	return srv
}

// inProcessTarget serves assembleServer behind an httptest listener.
type inProcessTarget struct {
	backendKind, dataDir string
	backend              plus.Backend
	ts                   *httptest.Server
}

func startInProcess(backend, dataDir string) (*inProcessTarget, error) {
	t := &inProcessTarget{backendKind: backend, dataDir: dataDir}
	if err := t.open(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *inProcessTarget) open() error {
	var err error
	switch t.backendKind {
	case "log":
		t.backend, err = plus.Open(filepath.Join(t.dataDir, "store.log"), plus.Options{})
	case "mem":
		t.backend = plus.NewMemBackend(0)
	default:
		err = fmt.Errorf("unknown backend %q", t.backendKind)
	}
	if err != nil {
		return err
	}
	t.ts = httptest.NewServer(assembleServer(t.backend))
	return nil
}

func (t *inProcessTarget) URL() string { return t.ts.URL }

func (t *inProcessTarget) Stop() {
	if t.ts != nil {
		t.ts.Close()
		t.backend.Close()
		t.ts = nil
	}
}

// Restart cannot kill -9 its own process; closing without a flush call
// is the nearest in-process equivalent (the log backend has no user
// space buffer to lose).
func (t *inProcessTarget) Restart() error {
	t.Stop()
	return t.open()
}

func (t *inProcessTarget) CPU() (float64, float64, error) { return procUsage(os.Getpid()) }
