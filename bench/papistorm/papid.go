package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commonFlags are pinned on every workload. -queue/-write-queue 1024:
// a tick bursts one frame per session into a drop-oldest queue, and at
// papid's default depth of 32 a wildcard subscriber over 256 sessions
// loses most of them (bench/README.md, sizing facts). With the queues
// deep enough to hold eight ticks' bursts, a missing frame is a bug, not
// tuning. (At 1024, two ticks' worth, one run in a hundred lost some
// sixty frames to a host stall.)
var commonFlags = []string{"-tick", "50ms", "-queue", "4096", "-write-queue", "4096", "-quiet"}

// buildPapid compiles cmd/papid into dir. The package is named by
// import path, so it resolves from any working directory inside the
// module and fails where the module is absent.
func buildPapid(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "papid"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/papid")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/papid: %v\n%s", err, out)
	}
	return bin, nil
}

// papid is one spawned server process.
type papid struct {
	cmd    *exec.Cmd
	addr   string
	flags  []string
	stderr bytes.Buffer
	waited chan struct{}
}

// startPapid execs bin on a free loopback port and returns once the
// port accepts connections. The port is found by binding and releasing
// it, so another process can take it in between; papid then exits at
// once and a second port is tried.
func startPapid(bin string, flags []string) (p *papid, err error) {
	for try := 0; try < 3; try++ {
		if p, err = startPapidOnce(bin, flags); err == nil {
			return p, nil
		}
	}
	return nil, err
}

func startPapidOnce(bin string, flags []string) (*papid, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	p := &papid{addr: addr, flags: flags, waited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no orphan if the harness is killed
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.cmd.Wait()
		close(p.waited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			nc.Close()
			return p, nil
		}
		select {
		case <-p.waited:
			return nil, fmt.Errorf("papid exited during start-up: %s", p.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("papid did not listen on %s: %v", addr, err)
		}
		// Part of setup_s, so poll finely: time.Sleep would round each
		// wait up to a millisecond or more.
		pause := syscall.NsecToTimespec(int64(200 * time.Microsecond))
		syscall.Nanosleep(&pause, nil)
	}
}

// kill is kill -9 and waits for the process to be gone.
func (p *papid) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.waited
}

// cpuMS returns the CPU time the process's threads have had so far, in
// ms: the sum of the first field of every thread's schedstat, which the
// scheduler keeps in ns. utime+stime in /proc/<pid>/stat come in 10 ms
// ticks, a tenth of what papid uses in a one-second slice; they serve
// only where the kernel keeps no schedstat. papid's threads are the Go
// runtime's, which do not exit, so the sum never falls.
func (p *papid) cpuMS() (float64, error) {
	pid := p.cmd.Process.Pid
	files, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if len(files) == 0 {
		return p.cpuTicksMS()
	}
	var ns uint64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		run, _, _ := strings.Cut(string(b), " ")
		v, err := strconv.ParseUint(run, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unparseable %s: %q", f, b)
		}
		ns += v
	}
	return float64(ns) / 1e6, nil
}

// clkTck is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const clkTck = 100

// cpuTicksMS is cpuMS from /proc/<pid>/stat.
func (p *papid) cpuTicksMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14, stime 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat: %q", b)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat times: %q", b)
	}
	return float64(ut+st) * 1000 / clkTck, nil
}

// rssPeakMB returns VmHWM, the process's peak resident set, in MiB.
func (p *papid) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparseable VmHWM: %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUMS is the harness's own user+system CPU time in ms.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}
