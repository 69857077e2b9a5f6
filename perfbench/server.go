package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one soxqd process. Every run starts its own, so pooled arenas,
// the calibration EWMA and the result cache never carry across runs.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns soxqd on a free loopback port and waits until
// /healthz answers. The server dies with the benchmark (Pdeathsig).
func startServer(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-parallel", "0", "-drain", "1s")
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.cmd.Wait(); close(s.exited) }()
	c := newClient(s.base)
	defer c.close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := c.get("/healthz"); err == nil {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("soxqd exited during start-up: %s", strings.TrimSpace(s.stderr.String()))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("soxqd not ready after 20s")
		}
	}
}

// stop asks the server to drain, kills it if it does not exit promptly, and
// waits until the process has ended.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(3 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// procSample is the server's CPU time and peak RSS read from /proc.
type procSample struct {
	cpu    time.Duration
	peakKB int64
}

func (s *server) sample() (procSample, error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procSample{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return procSample{}, fmt.Errorf("short /proc stat line")
	}
	utime, _ := strconv.ParseInt(rest[11], 10, 64)
	stime, _ := strconv.ParseInt(rest[12], 10, 64)
	ps := procSample{cpu: time.Duration(utime+stime) * 10 * time.Millisecond}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procSample{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			ps.peakKB, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	return ps, nil
}

// selfCPU is this process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
