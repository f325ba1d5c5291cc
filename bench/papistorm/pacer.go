package main

import (
	"runtime"
	"syscall"
	"time"
)

// spinMargin is how long before a due time the pacer stops sleeping
// and spins. time.Sleep overshoots by ~0.5 ms p50 / 1.1 ms p99 on this
// kernel (the runtime's timers ride epoll's millisecond timeout), which
// is longer than a PUBLISH round trip; nanosleep on a locked thread,
// with the vCPUs kept awake, overshoots by ~0.08 ms p50 / 0.15 ms p99.
// A 0.3 ms spin covers that for a seventh of a core at a 2 ms period; a
// 1.5 ms spin behind time.Sleep would take three quarters of one.
const spinMargin = 300 * time.Microsecond

// pace calls fire(i, spun) at start+offs[i] for each i in order, from
// the calling goroutine, and returns how late each call began, in ns.
// spun is how long the pacer has spent spinning so far: CPU time of the
// harness that is no work (see the host gauge in report.go). It is the
// harness's only pacer: one sleeping-then-spinning goroutine for all
// connections, because two spinners beside papid on two cores make
// each other late. A fire that overruns the next due time makes that
// one late; the schedule itself never slips (open loop).
func pace(start time.Time, offs []time.Duration, fire func(i int, spun time.Duration)) []int64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	late := make([]int64, len(offs))
	var spun time.Duration
	for i, off := range offs {
		due := start.Add(off)
		if d := time.Until(due) - spinMargin; d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		t := time.Now()
		for time.Until(due) > 0 {
		}
		now := time.Now()
		spun += now.Sub(t)
		late[i] = int64(now.Sub(due))
		fire(i, spun)
	}
	return late
}
