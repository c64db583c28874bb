package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDaemon compiles ./cmd/segugiod from the tree the benchmark runs
// in, so the binary under test is always the checkout's own. root is the
// module root; the binary lands under outDir.
func buildDaemon(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "segugiod")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/segugiod")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/segugiod: %v\n%s", err, out)
	}
	return bin, nil
}

// moduleRoot walks up from the working directory to the go.mod that
// owns ./cmd/segugiod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "segugiod", "main.go")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: run from inside the segugio module (no go.mod with cmd/segugiod above the working directory)")
		}
		dir = parent
	}
}

// daemon is one segugiod process. Everything the harness learns about
// it comes from outside: its log lines (only for the two listen
// addresses), its HTTP surface, and /proc.
type daemon struct {
	cmd    *exec.Cmd
	start  time.Time // just before exec
	http   string    // host:port of the API listener
	events string    // host:port of the tcp:// event listener
	client *http.Client

	logMu   sync.Mutex
	logTail []string
	logDone chan struct{}
	exited  chan struct{}
	waitErr error
}

var (
	httpAddrRe   = regexp.MustCompile(`msg="HTTP API listening".* addr=(\S+)`)
	eventsAddrRe = regexp.MustCompile(`msg="event listener started".* addr=tcp://(\S+)`)
)

// daemonDirs are the directories one daemon life works in.
type daemonDirs struct {
	state, data, model string
}

// startDaemon execs segugiod with the flags the issue fixes and every
// other flag at its default, then waits for both listen addresses to
// appear in its log. extra carries the workload's own flags
// (-shed-policy, -checkpoint-interval).
func startDaemon(bin string, d daemonDirs, extra ...string) (*daemon, error) {
	args := []string{
		"-listen", "127.0.0.1:0",
		"-events", "tcp://127.0.0.1:0",
		"-state", d.state,
		"-data", d.data,
		"-model", d.model,
		"-start-day", strconv.Itoa(day0),
		"-classify-every", "1s",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	dm := &daemon{
		cmd:     cmd,
		logDone: make(chan struct{}),
		exited:  make(chan struct{}),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		},
	}
	dm.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrs := make(chan struct{})
	go dm.readLog(stderr, addrs)
	go func() {
		<-dm.logDone // drain stderr before Wait closes the pipe
		dm.waitErr = cmd.Wait()
		close(dm.exited)
	}()
	select {
	case <-addrs:
	case <-dm.exited:
		return nil, fmt.Errorf("segugiod exited during start-up: %v\n%s", dm.waitErr, dm.tail())
	case <-time.After(120 * time.Second):
		dm.kill()
		return nil, fmt.Errorf("segugiod did not report its listeners within 120s\n%s", dm.tail())
	}
	return dm, nil
}

// readLog scans the daemon's log for the two listen addresses and keeps
// the last lines for error reports.
func (dm *daemon) readLog(r io.Reader, addrs chan<- struct{}) {
	defer close(dm.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		dm.logMu.Lock()
		if m := httpAddrRe.FindStringSubmatch(line); m != nil {
			dm.http = m[1]
		}
		if m := eventsAddrRe.FindStringSubmatch(line); m != nil {
			dm.events = m[1]
		}
		dm.logTail = append(dm.logTail, line)
		if len(dm.logTail) > 40 {
			dm.logTail = dm.logTail[len(dm.logTail)-40:]
		}
		ready := dm.http != "" && dm.events != ""
		dm.logMu.Unlock()
		if ready && !signalled {
			signalled = true
			close(addrs)
		}
	}
}

func (dm *daemon) tail() string {
	dm.logMu.Lock()
	defer dm.logMu.Unlock()
	return strings.Join(dm.logTail, "\n")
}

// waitReady polls /readyz until it answers 200 and returns the time
// since exec — setup_s on an empty state dir, recovery_s over a killed
// one.
func (dm *daemon) waitReady(limit time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(limit)
	for {
		resp, err := dm.client.Get("http://" + dm.http + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(dm.start), nil
			}
		}
		select {
		case <-dm.exited:
			return 0, fmt.Errorf("segugiod exited before ready: %v\n%s", dm.waitErr, dm.tail())
		default:
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("segugiod not ready within %s\n%s", limit, dm.tail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// get fetches one API path and returns status and body.
func (dm *daemon) get(path string) (int, []byte, error) {
	resp, err := dm.client.Get("http://" + dm.http + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// post sends one JSON body and returns status and body.
func (dm *daemon) post(path, body string) (int, []byte, error) {
	resp, err := dm.client.Post("http://"+dm.http+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// kill SIGKILLs the daemon and waits until it has gone.
func (dm *daemon) kill() {
	dm.cmd.Process.Kill()
	<-dm.exited
	dm.client.CloseIdleConnections()
}

// procStats is what /proc/PID says about the daemon.
type procStats struct {
	cpuSeconds float64 // utime+stime
	peakRSSMB  float64 // VmHWM
}

// clockTicks is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports.
const clockTicks = 100

func (dm *daemon) proc() (procStats, error) {
	var ps procStats
	pid := strconv.Itoa(dm.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc stat: %q", stat)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("bad /proc stat times: %q", stat)
	}
	ps.cpuSeconds = (ut + st) / clockTicks
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return ps, fmt.Errorf("bad VmHWM: %q", line)
			}
			ps.peakRSSMB = kb / 1024
		}
	}
	return ps, nil
}
