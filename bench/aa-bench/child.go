package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"acceptableads/internal/decision/api"
)

// childProcs is the GOMAXPROCS the child runs under, so its numbers do
// not follow the core count of the host the benchmark happens to run on.
const childProcs = 2

// dirs locates the benchmark's module, the repository around it and the
// scratch directory everything a run writes goes under.
type dirs struct{ bench, repo, out string }

// findDirs accepts the benchmark's module directory or the repository
// root as working directory.
func findDirs() (dirs, error) {
	wd, err := os.Getwd()
	if err != nil {
		return dirs{}, err
	}
	for _, bench := range []string{wd, filepath.Join(wd, "bench")} {
		mod, err := os.ReadFile(filepath.Join(bench, "go.mod"))
		if err != nil || !strings.Contains(string(mod), "module acceptableads/bench\n") {
			continue
		}
		repo := filepath.Dir(bench)
		if _, err := os.Stat(filepath.Join(repo, "cmd", "aa-serve")); err != nil {
			return dirs{}, fmt.Errorf("%s is not inside the repository: %w", bench, err)
		}
		return dirs{bench: bench, repo: repo, out: filepath.Join(bench, ".out")}, nil
	}
	return dirs{}, fmt.Errorf("run from the repository root or its bench directory (in %s)", wd)
}

// buildChild compiles ./cmd/aa-serve from the repository's source.
func buildChild(ctx context.Context, d dirs) (string, error) {
	bin := filepath.Join(d.out, "aa-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/aa-serve")
	cmd.Dir = d.repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/aa-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running aa-serve.
type child struct {
	cmd     *exec.Cmd
	started time.Time // just before exec
	ready   time.Time // when it announced its API listener
	base    string    // the decision API
	metrics string    // the telemetry listener

	mu      sync.Mutex
	log     []string      // the child's last stderr lines, for error reports
	drained chan struct{} // closed at EOF on the child's stderr
}

// startChild execs aa-serve with production flags on loopback and waits
// until it announces its listeners. Everything not named here keeps its
// default: cache 65,536, profiles easylist=easylist, shedder on.
func startChild(ctx context.Context, bin string, lf listFiles, stateDir string) (*child, error) {
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-log-level", "error",
		"-easylist", lf.easy, "-whitelist", lf.white, "-state-dir", stateDir)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, drained: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	ready := make(chan struct{})
	go func() {
		defer close(c.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if len(c.log) == 40 {
				c.log = c.log[1:]
			}
			c.log = append(c.log, line)
			if _, addr, ok := strings.Cut(line, "telemetry at "); ok {
				c.metrics = strings.TrimSuffix(addr, "/debug/vars")
			}
			// The API listener is announced last, once it accepts.
			if _, addr, ok := strings.Cut(line, "decision API at "); ok && c.base == "" {
				c.base = strings.TrimSuffix(addr, "/v1/match")
				close(ready)
			}
			c.mu.Unlock()
		}
	}()
	select {
	case <-ready:
		c.ready = time.Now()
		return c, nil
	case <-c.drained:
		c.cmd.Wait() //nolint:errcheck // the log says more than the exit code
		return nil, fmt.Errorf("aa-serve exited before serving:\n%s", c.tail())
	case <-ctx.Done():
		c.stop()
		return nil, ctx.Err()
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, fmt.Errorf("aa-serve did not start serving within 60s:\n%s", c.tail())
	}
}

func (c *child) tail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.log, "\n")
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// aa-serve installs its SIGTERM handler just after it announces its
// listener; a signal that lands in between kills it through the Go
// runtime's default action, and once in several thousand such kills that
// ended in a segmentation fault instead. No child is signalled sooner
// than this after its announcement.
const stopGrace = 10 * time.Millisecond

// stop asks the child to drain and waits until the process has ended,
// killing it when it does not.
func (c *child) stop() error {
	time.Sleep(time.Until(c.ready.Add(stopGrace)))
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-c.drained:
	case <-time.After(15 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-c.drained
	}
	err := c.cmd.Wait()
	// Dying of the SIGTERM itself, handler or not, is a clean stop.
	if ws, ok := c.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	if err != nil {
		return fmt.Errorf("aa-serve: %w:\n%s", err, c.tail())
	}
	return nil
}

// newConn returns a client that owns exactly one keep-alive connection.
func newConn(base string) *api.Client {
	return api.NewClient(base, &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}})
}
