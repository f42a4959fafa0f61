package main

import (
	"bufio"
	"bytes"
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

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/vds"
)

// catalogShards and the options below are the one server configuration
// the benchmark measures: `vdcd -sync -shards 4 -snapshot-format
// binary/v1` with the default group-commit policy (-wal-batch 1024,
// -wal-delay 200µs). In-process twins open with the same options.
const catalogShards = 4

func catalogOptions() catalog.Options {
	return catalog.Options{Sync: true, Shards: catalogShards, SnapshotFormat: codec.BinaryName}
}

// server is one running vdcd process.
type server struct {
	cmd    *exec.Cmd
	dir    string
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{} // closed once the process has been reaped
}

// startServer execs vdcd on dir and returns once GET /healthz answers
// 200, with the exec-to-healthy time. The port is picked by binding
// :0 and releasing it; a lost race shows as an early exit and is
// retried on a fresh port.
func startServer(bin, dir string) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, d, err := startServerOnce(bin, dir)
		if err == nil {
			return s, d, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func startServerOnce(bin, dir string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.OpenFile(filepath.Clean(dir)+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin,
		"-addr", addr, "-dir", dir, "-name", "bench.vdc",
		"-sync", "-shards", strconv.Itoa(catalogShards), "-snapshot-format", codec.BinaryName,
		"-log-level", "warn")
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the benchmark is killed, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, dir: dir, base: "http://" + addr, log: logf}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()

	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			logf.Close()
			return nil, 0, fmt.Errorf("benchmark: vdcd exited during start-up, see %s", logf.Name())
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				s.exited = exited
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.exited = exited
	s.kill()
	return nil, 0, fmt.Errorf("benchmark: vdcd not healthy after 60s, see %s", logf.Name())
}

// kill ends the process the way a crash would (SIGKILL: no drain, no
// final snapshot) and waits until it is gone.
func (s *server) kill() {
	if s == nil || s.cmd == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.log.Close()
	s.cmd = nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procStatusKB reads one "Vm*: N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("benchmark: no %s in /proc/%d/status", field, pid)
}

// peakRSSMB is the process's resident high-water mark in MiB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// procCPUSeconds is user+system CPU time consumed by pid so far.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after
	// its closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("benchmark: malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("benchmark: short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("benchmark: malformed /proc/%d/stat", pid)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (utime + stime) / clockTicks, nil
}

// scrape is one parsed GET /metrics: series (name plus label set, as
// printed) to value, and the raw text for the result file.
type scrape struct {
	raw    string
	series map[string]float64
}

func (s *server) scrape() (scrape, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return scrape{}, err
	}
	return parseScrape(string(data)), nil
}

func parseScrape(text string) scrape {
	sc := scrape{raw: text, series: map[string]float64{}}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		sc.series[line[:i]] = v
	}
	return sc
}

// sum adds every series of the named family whose label set contains
// all of the given `key="value"` fragments.
func (sc scrape) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range sc.series {
		fam, rest, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// preload builds a catalog directory in-process (Open, fill, Snapshot,
// Close) for a server to start on. fill receives the open catalog. The
// fill is not fsynced per object: the closing snapshot is what the
// server loads, and the directory pins only shard count and format.
func preload(dir string, fill func(*catalog.Catalog) error) error {
	opts := catalogOptions()
	opts.Sync = false
	cat, err := catalog.Open(dir, dtype.StandardRegistry(), opts)
	if err != nil {
		return err
	}
	if err := fill(cat); err != nil {
		cat.Close()
		return err
	}
	if err := cat.Snapshot(); err != nil {
		cat.Close()
		return err
	}
	return cat.Close()
}

// newClient returns a vds.Client with a transport of its own holding
// one keep-alive connection: one client, one socket. Retries are off,
// so a failed request is counted instead of hidden. Response bytes are
// counted into rx.
func newClient(base string, rx *byteCounter) *vds.Client {
	c := vds.NewClient(base)
	c.Retries = -1
	c.HTTP = &http.Client{
		Timeout: vds.DefaultTimeout,
		Transport: &countingTransport{rx: rx, next: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
	return c
}

// byteCounter totals response-body bytes. Each client owns one, so no
// synchronisation is needed while its single goroutine runs.
type byteCounter struct{ n int64 }

type countingTransport struct {
	rx   *byteCounter
	next http.RoundTripper
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(r)
	if err == nil && t.rx != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, rx: t.rx}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	rx *byteCounter
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rx.n += int64(n)
	return n, err
}
