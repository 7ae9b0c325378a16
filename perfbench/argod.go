package main

// argod as shipped, in its own process: start, readiness, /proc
// readings, /debug/vars, and stop.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

type argod struct {
	cmd  *exec.Cmd
	base string
	log  bytes.Buffer
	// done closes when the process has exited and waitErr is set.
	done    chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startArgod runs bin with default flags apart from the listen address
// and waits until /healthz answers. The free port it picks may be taken
// before argod binds it, so an argod that exits early is started again
// on another port, up to three times.
func startArgod(bin string, client *http.Client) (*argod, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var a *argod
		if a, err = tryStartArgod(bin, client); err == nil {
			return a, nil
		}
	}
	return nil, err
}

func tryStartArgod(bin string, client *http.Client) (*argod, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	a := &argod{base: "http://" + addr, done: make(chan struct{})}
	a.cmd = exec.Command(bin, "-addr", addr)
	a.cmd.Stdout = &a.log
	a.cmd.Stderr = &a.log
	// argod must not outlive the benchmark, whatever ends it.
	a.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := a.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start argod: %w", err)
	}
	go func() {
		a.waitErr = a.cmd.Wait()
		close(a.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(a.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return a, nil
			}
		}
		select {
		case <-a.done:
			return nil, fmt.Errorf("argod exited before it was ready: %v\n%s", a.waitErr, a.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			a.stop()
			return nil, fmt.Errorf("argod not ready after 30s")
		}
	}
}

// stop sends SIGTERM, waits for the graceful exit, and kills argod if it
// has not exited within ten seconds. Stopping twice is harmless.
func (a *argod) stop() {
	select {
	case <-a.done:
		return
	default:
	}
	_ = a.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-a.done:
	case <-time.After(10 * time.Second):
		_ = a.cmd.Process.Kill()
		<-a.done
	}
}

// cpu returns argod's user+system CPU time so far.
func (a *argod) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", a.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", s)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns argod's peak resident set (VmHWM) in MiB.
func (a *argod) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", a.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// vars fetches /debug/vars.
func (a *argod) vars(client *http.Client) (map[string]json.RawMessage, error) {
	resp, err := client.Get(a.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return out, nil
}
