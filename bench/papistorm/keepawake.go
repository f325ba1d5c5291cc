package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On the 2-vCPU virtual machines this benchmark is sized for, a vCPU
// that goes idle is descheduled by the host, and waking it takes from
// tens of microseconds to tens of milliseconds. A 2 ms nanosleep then
// overshoots by 0.8 ms at p99 and 40 ms at worst, and every goroutine
// hand-off inside papid pays the same toll, which is host noise, not
// papid. The keep-awake child runs one spinning thread per CPU at
// SCHED_IDLE, the policy that only gets cycles nobody else wants: the
// vCPUs never halt (nanosleep p99 falls to 0.1 ms) and any thread of
// papid or the harness preempts a spinner at once. It is a separate
// process so that its threads, which rarely run while the machine is
// busy, can never hold up this process's garbage collector, and so that
// its CPU time is not the harness's.

const schedIdle = 5 // SCHED_IDLE from <linux/sched.h>

// keepAwakeMain is the child: it spins until its stdin closes.
func keepAwakeMain() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	ready := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param int32 // sched_priority, must be 0 for SCHED_IDLE
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			ready <- errno == 0
			if errno != 0 {
				return // never spin at a priority that would take CPU from papid
			}
			for {
			}
		}()
	}
	ok := true
	for i := 0; i < n; i++ {
		ok = <-ready && ok
	}
	if !ok {
		os.Exit(1)
	}
	os.Stdout.Write([]byte{'k'})
	io.Copy(io.Discard, os.Stdin)
}

// startKeepAwake starts the child and returns what stops it. It fails
// where SCHED_IDLE is not to be had; the run then goes on without, and
// the results say so.
func startKeepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-keepawake")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var b [1]byte
	if _, err := io.ReadFull(stdout, b[:]); err != nil {
		stdin.Close()
		cmd.Wait()
		return nil, fmt.Errorf("keep-awake child could not enter SCHED_IDLE")
	}
	return func() {
		stdin.Close()
		cmd.Wait()
	}, nil
}
