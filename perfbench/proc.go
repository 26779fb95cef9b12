package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

const (
	// readyTimeout bounds the wait for a started server's /healthz.
	readyTimeout = 60 * time.Second
	// stopTimeout is how long a server may drain after SIGTERM before it is
	// killed.
	stopTimeout = 15 * time.Second
	serverName  = "upa-server"
)

// server is one upa-server child process with its own port and state
// directory. stop kills it and removes the directory; it is safe to call
// more than once and from any goroutine.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dir     string
	journal string
	done    chan struct{} // closed once the process has been reaped
	waitErr error         // valid after done is closed

	stopOnce sync.Once
}

// live tracks every started server so that any exit path — normal return,
// error, or a signal to the benchmark — stops them all.
var live = struct {
	sync.Mutex
	servers map[*server]bool
}{servers: make(map[*server]bool)}

func stopAllServers() {
	live.Lock()
	all := make([]*server, 0, len(live.servers))
	for s := range live.servers {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// refuseConcurrentServer fails when another upa-server is running: its load
// would distort every timing, and an orphan from an earlier run may hold
// state this run depends on.
func refuseConcurrentServer() error {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil // no procfs: nothing to check against
	}
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		comm, err := os.ReadFile(filepath.Join("/proc", e.Name(), "comm"))
		if err == nil && strings.TrimSpace(string(comm)) == serverName {
			return fmt.Errorf("another %s (pid %s) is running; stop it before benchmarking", serverName, e.Name())
		}
	}
	return nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// startServer execs bin with args on a free loopback port, its serving
// state in a fresh directory under workdir, and waits until /healthz
// answers. The returned duration runs from exec to the first healthy
// answer.
func startServer(bin, workdir string, args []string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick a port: %w", err)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, 0, err
	}
	state := filepath.Join(dir, "ledger.json")
	logFile, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	full := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-servestate", state}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	// The kernel kills the server if the benchmark dies without running its
	// deferred cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		cmd:     cmd,
		base:    fmt.Sprintf("http://127.0.0.1:%d", port),
		dir:     dir,
		journal: state + ".journal",
		done:    make(chan struct{}),
	}
	live.Lock()
	start := time.Now()
	err = cmd.Start()
	if err == nil {
		live.servers[s] = true
	}
	live.Unlock()
	if err != nil {
		logFile.Close()
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		logFile.Close()
		close(s.done)
	}()
	if err := s.awaitReady(); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// awaitReady polls /healthz until it answers 200, the process exits, or
// readyTimeout passes.
func (s *server) awaitReady() error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	deadline := time.Now().Add(readyTimeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("%s exited before it was ready (%v):\n%s", serverName, s.waitErr, s.logTail())
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v:\n%s", serverName, readyTimeout, s.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logTail returns the last lines the server wrote.
func (s *server) logTail() string {
	data, err := os.ReadFile(filepath.Join(s.dir, "server.log"))
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// stop drains the server with SIGTERM, kills it if it does not exit in
// time, waits for it, and removes its state directory.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		select {
		case <-s.done:
		default:
			_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below either way
			select {
			case <-s.done:
			case <-time.After(stopTimeout):
				_ = s.cmd.Process.Kill()
				<-s.done
			}
		}
		os.RemoveAll(s.dir)
		live.Lock()
		delete(live.servers, s)
		live.Unlock()
	})
}

// peakRSSMB is the server's VmHWM.
func (s *server) peakRSSMB() (float64, bool) {
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// journalBytes is the current size of the serving ledger's journal.
func (s *server) journalBytes() int64 {
	fi, err := os.Stat(s.journal)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// client is the benchmark's single HTTP client: one keep-alive connection,
// one request at a time.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				Proxy:               nil,
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		base: base,
	}
}

// post sends body to path and returns the status and the whole response
// body.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// cacheCounters reads the release cache's hit and miss counters from
// /metrics.
func (c *client) cacheCounters() (hits, misses float64, err error) {
	var m struct {
		ReleaseCache struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"releaseCache"`
	}
	err = c.getJSON("/metrics", &m)
	return m.ReleaseCache.Hits, m.ReleaseCache.Misses, err
}
