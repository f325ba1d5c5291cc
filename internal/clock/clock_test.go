package clock

import (
	"slices"
	"testing"
	"time"
)

var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// TestFakeTickerHoldsOneFiring: a receiver that takes nothing while the
// clock passes three intervals finds one firing, the first, and the
// other two dropped — time.Ticker's rule.
func TestFakeTickerHoldsOneFiring(t *testing.T) {
	fk := NewFake(epoch)
	tk := fk.NewTicker(time.Second)
	fk.Advance(3 * time.Second)
	if got := <-tk.C; !got.Equal(epoch.Add(time.Second)) {
		t.Errorf("held firing at %v, want the first, %v", got, epoch.Add(time.Second))
	}
	select {
	case got := <-tk.C:
		t.Errorf("second firing %v delivered; a busy receiver's extra firings are dropped", got)
	default:
	}
	fk.Advance(time.Second)
	if got := <-tk.C; !got.Equal(epoch.Add(4 * time.Second)) {
		t.Errorf("next firing at %v, want %v", got, epoch.Add(4*time.Second))
	}
	tk.Stop()
	fk.Advance(time.Hour)
	select {
	case got := <-tk.C:
		t.Errorf("stopped ticker fired at %v", got)
	default:
	}
}

// TestFakeTimersFireInTimeOrder: timers due within one Advance run in
// due order, each seeing Now at its due time, before Advance returns; a
// stopped timer never runs, and Stop reports which timers it caught.
func TestFakeTimersFireInTimeOrder(t *testing.T) {
	fk := NewFake(epoch)
	var fired []time.Duration
	at := func(d time.Duration) *Timer {
		return fk.AfterFunc(d, func() { fired = append(fired, fk.Now().Sub(epoch)) })
	}
	at(3 * time.Second)
	at(time.Second)
	stopped := at(2 * time.Second)
	late := at(time.Hour)
	if !stopped.Stop() {
		t.Error("Stop of a pending timer reported false")
	}
	fk.Advance(5 * time.Second)
	if want := []time.Duration{time.Second, 3 * time.Second}; !slices.Equal(fired, want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}
	if got := fk.Now().Sub(epoch); got != 5*time.Second {
		t.Errorf("Now after Advance = epoch+%v, want epoch+5s", got)
	}
	if !late.Stop() || stopped.Stop() {
		t.Error("Stop must report true only for a timer still pending")
	}
}

// TestOrIsReal: the zero value of a Clock field is the wall clock.
func TestOrIsReal(t *testing.T) {
	if _, ok := Or(nil).(Real); !ok {
		t.Error("Or(nil) is not Real")
	}
	fk := NewFake(epoch)
	if Or(fk) != Clock(fk) {
		t.Error("Or replaced a set clock")
	}
	before := time.Now()
	if now := Or(nil).Now(); now.Before(before) || now.Sub(before) > time.Minute {
		t.Errorf("Real.Now() = %v, not the wall clock (%v)", now, before)
	}
}

// TestMonoCountsElapsedTime: Mono readings subtract to the time between
// them — on Fake exactly what Advance moved, starting from zero; on Real
// never backwards.
func TestMonoCountsElapsedTime(t *testing.T) {
	fk := NewFake(epoch)
	if got := fk.Mono(); got != 0 {
		t.Errorf("a new Fake's Mono = %v, want 0", got)
	}
	fk.Advance(1500 * time.Millisecond)
	if got := fk.Mono(); got != 1500*time.Millisecond {
		t.Errorf("Mono after Advance(1.5s) = %v, want 1.5s", got)
	}
	a := Real{}.Mono()
	if b := (Real{}).Mono(); b < a || a < 0 {
		t.Errorf("Real Mono read %v then %v", a, b)
	}
}

// TestStampIsOneInstant: Stamp's two halves are Now and Mono of one
// instant — on Fake exactly, on Real between the Mono reads around it.
func TestStampIsOneInstant(t *testing.T) {
	fk := NewFake(epoch)
	fk.Advance(2 * time.Second)
	if now, mono := fk.Stamp(); !now.Equal(fk.Now()) || mono != fk.Mono() {
		t.Errorf("Fake Stamp = %v, %v; want %v, %v", now, mono, fk.Now(), fk.Mono())
	}
	a := Real{}.Mono()
	now, mono := Real{}.Stamp()
	b := Real{}.Mono()
	if mono < a || mono > b {
		t.Errorf("Real Stamp's Mono %v not between reads %v and %v", mono, a, b)
	}
	if d := time.Since(now); d < 0 || d > time.Minute {
		t.Errorf("Real Stamp's Now is %v from the wall clock", d)
	}
}
