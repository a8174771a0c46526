package main

import (
	"bufio"
	"bytes"
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
)

// child is one linksynthd process serving a data directory on loopback.
type child struct {
	cmd    *exec.Cmd
	url    string
	exec   time.Time // when the process was started
	logf   *os.File
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	client *http.Client
	done   bool
}

// startChild execs linksynthd on dataDir and waits until /healthz answers.
func startChild(bin, dataDir string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:"+port, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{
		cmd: cmd, url: "http://127.0.0.1:" + port, logf: logf,
		exited: make(chan struct{}),
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				DisableCompression: true,
			},
		},
	}
	c.exec = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec linksynthd: %w", err)
	}
	go func() {
		c.err = cmd.Wait()
		close(c.exited)
	}()
	if err := c.waitReady(30 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

func (c *child) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("linksynthd exited before it was ready (%v): %s", c.err, c.logTail())
		default:
		}
		res, err := c.client.Get(c.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("linksynthd not ready after %v: %s", limit, c.logTail())
}

// stop ends the child gracefully (SIGTERM flushes queued persists) and
// waits for it; a child that does not stop in time is killed. Stopping a
// stopped child does nothing.
func (c *child) stop() error {
	if c.done {
		return nil
	}
	c.done = true
	defer c.logf.Close()
	defer c.client.CloseIdleConnections()
	select {
	case <-c.exited:
		return fmt.Errorf("linksynthd exited early (%v): %s", c.err, c.logTail())
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
		return nil
	case <-time.After(30 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return errors.New("linksynthd ignored SIGTERM for 30s; killed")
	}
}

func (c *child) logTail() string {
	b, _ := os.ReadFile(c.logf.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// cpuMs is the child's user plus system CPU time so far, in milliseconds.
func (c *child) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15, in USER_HZ (100 per second).
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", b)
	}
	return (ut + st) * 10, nil
}

// ticks is CPU time of the whole host, in USER_HZ ticks summed over CPUs.
type ticks struct{ steal, total int64 }

func (t ticks) sub(u ticks) ticks { return ticks{t.steal - u.steal, t.total - u.total} }

func (t *ticks) add(u ticks) { t.steal += u.steal; t.total += u.total }

// share is the stolen part of the host's CPU time.
func (t ticks) share() float64 {
	if t.total <= 0 {
		return 0
	}
	return float64(t.steal) / float64(t.total)
}

// hostTicks reads the host's CPU time so far from the aggregate line of
// /proc/stat: user, nice, system, idle, iowait, irq, softirq, steal, ...
func hostTicks() (ticks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return ticks{}, fmt.Errorf("bad /proc/stat line %q", line)
	}
	var t ticks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return ticks{}, fmt.Errorf("bad /proc/stat line %q", line)
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// peakRSSMB is the child's VmHWM in MiB.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the child's unlabeled /metrics samples.
func (c *child) scrape() (counters, error) {
	res, err := c.client.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(b), nil
}

// counters maps unlabeled metric names to their values.
type counters map[string]float64

func parseExposition(b []byte) counters {
	out := counters{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		if name, v, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out
}

// copyTree copies the regular files of a data directory.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
