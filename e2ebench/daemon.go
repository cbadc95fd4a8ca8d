package main

import (
	"bytes"
	"context"
	"encoding/json"
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
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one twopcpd process started by the benchmark, with an HTTP
// client whose connections count the bytes they move, so the daemon's
// syscall I/O can be split into HTTP traffic and everything else.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}

	sent, received atomic.Int64 // client-side bytes on the daemon's sockets
}

type countingConn struct {
	net.Conn
	d *daemon
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.d.received.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.d.sent.Add(int64(n))
	return n, err
}

// startDaemon runs bin with one job worker over dataDir and waits until
// /healthz answers. The daemon dies with the benchmark (Pdeathsig) if the
// benchmark is killed before it can stop it.
func startDaemon(bin, dataDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d, err := tryStart(bin, dataDir, port)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func tryStart(bin, dataDir string, port int) (*daemon, error) {
	logf, err := os.Create(filepath.Join(filepath.Dir(dataDir), "twopcpd-"+strconv.Itoa(port)+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-data", dataDir, "-listen", addr, "-jobs", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start twopcpd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(d.exited) }()
	dialer := &net.Dialer{}
	d.client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, a)
			if err != nil {
				return nil, err
			}
			return countingConn{c, d}, nil
		},
		DisableCompression: true,
	}}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("twopcpd exited during start-up (see %s)", logf.Name())
		default:
		}
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, errors.New("twopcpd did not answer /healthz within 20s")
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes more than ten seconds.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// get fetches path and returns the body, failing on any non-200 status.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (d *daemon) getJSON(path string, v any) error {
	body, err := d.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// jobRecord is the part of the API's job record the benchmark reads.
type jobRecord struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// jobResult is GET /v1/jobs/{id}/result.
type jobResult struct {
	Fit      float64   `json:"fit"`
	FitTrace []float64 `json:"fit_trace"`
}

// submit posts a job spec and returns the new job's ID.
func (d *daemon) submit(spec map[string]any) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(out))
	}
	var rec jobRecord
	if err := json.Unmarshal(out, &rec); err != nil {
		return "", err
	}
	return rec.ID, nil
}

// waitDone polls the job every interval until it reaches a terminal
// state; anything but done is an error.
func (d *daemon) waitDone(id string, interval, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var rec jobRecord
		if err := d.getJSON("/v1/jobs/"+id, &rec); err != nil {
			return err
		}
		switch rec.State {
		case "done":
			return nil
		case "queued", "running":
		default:
			return fmt.Errorf("job %s ended %s: %s", id, rec.State, rec.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s not done after %v", id, timeout)
		}
		time.Sleep(interval)
	}
}

// procIO reads rchar and wchar, the bytes a process has moved through
// read- and write-type syscalls, from /proc/<pid>/io.
func procIO(pid int) (rchar, wchar int64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "rchar":
			rchar = n
		case "wchar":
			wchar = n
		}
	}
	return rchar, wchar, nil
}

// peakRSS reads VmHWM, the process's peak resident set, in bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
