// Package clock is the one way papid's server side reads time. Row
// timestamps, the tick ticker, the WAL's fsync and compaction tickers,
// read and write deadlines, op and tick timing, fsync timing and uptime
// all go through a Clock, and so do internal/faultnet's deadlines. Real
// is the wall clock, and a nil Clock means Real. Fake is virtual time:
// it moves only when a test advances it, so a test that used to sleep
// until a tick fired or a deadline passed advances the clock instead
// and runs the same code with a result that does not depend on the host.
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock is a source of the current time and of the two waits papid
// needs: a periodic ticker and a one-shot timer.
type Clock interface {
	Now() time.Time
	// Mono reads the clock as the time since a fixed origin of its
	// own; two readings subtract to the time between them. Real takes
	// one monotonic clock read for it where Now takes two (the wall
	// clock too), so Mono is the cheaper way to time a stage.
	Mono() time.Duration
	// Stamp reads the clock once for both: the Now and the Mono of one
	// instant, for a caller that wants a timestamp and the start of a
	// duration.
	Stamp() (time.Time, time.Duration)
	// NewTicker fires on C every d. Like time.Ticker, it holds one
	// firing for a receiver that is busy and drops the rest.
	NewTicker(d time.Duration) *Ticker
	// AfterFunc calls f once d has passed, unless the timer is stopped
	// first.
	AfterFunc(d time.Duration, f func()) *Timer
}

// Or returns c, or Real when c is nil: the zero value of a Clock field
// is the wall clock.
func Or(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// Ticker delivers a Clock's periodic firings on C.
type Ticker struct {
	C    <-chan time.Time
	stop func()
}

// Stop turns the ticker off. It does not close C.
func (t *Ticker) Stop() { t.stop() }

// Timer is a pending AfterFunc call.
type Timer struct{ stop func() bool }

// Stop cancels the call. It reports false when the call has already
// been made or begun.
func (t *Timer) Stop() bool { return t.stop() }

// Real is the wall clock.
type Real struct{}

func (Real) Now() time.Time { return time.Now() }

// realOrigin is Real's Mono origin; time.Since of a time with a
// monotonic reading reads the monotonic clock alone.
var realOrigin = time.Now()

func (Real) Mono() time.Duration { return time.Since(realOrigin) }

func (Real) Stamp() (time.Time, time.Duration) {
	t := time.Now()
	return t, t.Sub(realOrigin)
}

func (Real) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, stop: t.Stop}
}

func (Real) AfterFunc(d time.Duration, f func()) *Timer {
	return &Timer{stop: time.AfterFunc(d, f).Stop}
}

// Fake is virtual time. It stands still until Advance moves it, and
// fires the tickers and timers that fall due on the way. It is safe for
// concurrent use.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	origin time.Time // Mono's: the time NewFake started from
	waits  []*wait   // armed tickers and timers, in the order they were armed
}

// wait is one armed ticker (period > 0) or timer.
type wait struct {
	at     time.Time
	period time.Duration
	c      chan time.Time // a ticker's
	f      func()         // a timer's
}

// NewFake returns virtual time that reads t until it is advanced.
func NewFake(t time.Time) *Fake { return &Fake{now: t, origin: t} }

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *Fake) Mono() time.Duration { return f.Now().Sub(f.origin) }

func (f *Fake) Stamp() (time.Time, time.Duration) {
	t := f.Now()
	return t, t.Sub(f.origin)
}

func (f *Fake) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("clock: non-positive interval for NewTicker")
	}
	c := make(chan time.Time, 1)
	w := f.arm(&wait{period: d, c: c}, d)
	return &Ticker{C: c, stop: func() { f.disarm(w) }}
}

func (f *Fake) AfterFunc(d time.Duration, fn func()) *Timer {
	w := f.arm(&wait{f: fn}, d)
	return &Timer{stop: func() bool { return f.disarm(w) }}
}

func (f *Fake) arm(w *wait, d time.Duration) *wait {
	f.mu.Lock()
	defer f.mu.Unlock()
	w.at = f.now.Add(d)
	f.waits = append(f.waits, w)
	return w
}

func (f *Fake) disarm(w *wait) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := slices.Index(f.waits, w)
	if i < 0 {
		return false
	}
	f.waits = slices.Delete(f.waits, i, i+1)
	return true
}

// Advance moves the clock forward by d. Each ticker and timer that
// falls due on the way fires in time order, with Now reading its due
// time. A ticker's firing is dropped when its channel already holds
// one, as time.Ticker's is for a busy receiver. A timer's func runs on
// the calling goroutine, so what it does has happened when Advance
// returns. Calls to Advance must not overlap.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := f.now.Add(d)
	for {
		var next *wait
		for _, w := range f.waits {
			if !w.at.After(end) && (next == nil || w.at.Before(next.at)) {
				next = w
			}
		}
		if next == nil {
			break
		}
		f.now = next.at
		if next.period > 0 {
			select {
			case next.c <- next.at:
			default:
			}
			next.at = next.at.Add(next.period)
			continue
		}
		f.waits = slices.DeleteFunc(f.waits, func(w *wait) bool { return w == next })
		f.mu.Unlock()
		next.f()
		f.mu.Lock()
	}
	f.now = end
}
