package core

import (
	"repro/internal/hwsim"
	"repro/internal/multiplex"
	"repro/internal/profil"
)

// State is an EventSet's lifecycle state.
type State int

// EventSet states.
const (
	StateStopped State = iota
	StateRunning
)

func (s State) String() string {
	switch s {
	case StateStopped:
		return "stopped"
	case StateRunning:
		return "running"
	}
	return "invalid"
}

// OverflowHandler receives counter-overflow notifications: the set, the
// reported instruction address (skidded on OOO direct-counting
// substrates, exact on sampling substrates) and the overflowed event.
type OverflowHandler func(es *EventSet, address uint64, event Event)

// EventSet is the low-level interface's unit of measurement: an ordered
// collection of events counted together, with explicit start/stop/read
// control, opt-in multiplexing, and overflow/profiling dispatch.
type EventSet struct {
	thread *Thread // the thread whose counters the set uses
	owner  *Thread // the thread that created the set
	state  State

	events  []Event  // in add order
	rows    [][]term // per event: weighted native terms
	natives []uint32 // deduped union of all terms' codes
	nidx    map[uint32]int

	vals []uint64 // 64-bit extended per-native counts since Start/Reset

	multiplexed bool
	mpxInterval uint64
	mpx         *multiplex.Engine

	domain hwsim.Domain // 0 = DomainAll

	ovfEvent     Event
	ovfNative    uint32
	ovfThreshold uint64
	ovfHandler   OverflowHandler

	prof      *profil.Profile
	destroyed bool
}

// NewEventSet creates an empty, stopped EventSet on the thread.
func (t *Thread) NewEventSet() *EventSet {
	return &EventSet{thread: t, owner: t, nidx: map[uint32]int{}}
}

// Attach rebinds a stopped EventSet to count on another thread
// (PAPI_attach): the controlling thread keeps driving the set while the
// hardware context measured is the target's. Third-party tools use this
// to monitor worker threads they did not create.
func (es *EventSet) Attach(target *Thread) error {
	if err := es.check(StateStopped); err != nil {
		return err
	}
	if target == nil {
		return errf(EINVAL, "nil target thread")
	}
	if target.sys != es.owner.sys {
		return errf(EINVAL, "target thread belongs to a different System")
	}
	es.thread = target
	return nil
}

// Detach rebinds the set to the thread that created it (PAPI_detach).
func (es *EventSet) Detach() error {
	if err := es.check(StateStopped); err != nil {
		return err
	}
	es.thread = es.owner
	return nil
}

// Attached reports whether the set currently measures a thread other
// than its creator.
func (es *EventSet) Attached() bool { return es.thread != es.owner }

// Thread returns the thread the set is bound to.
func (es *EventSet) Thread() *Thread { return es.thread }

// State returns the set's lifecycle state.
func (es *EventSet) State() State { return es.state }

// Events returns the set's events in add order.
func (es *EventSet) Events() []Event { return append([]Event(nil), es.events...) }

// NumEvents returns the number of events in the set.
func (es *EventSet) NumEvents() int { return len(es.events) }

// NativeCodes returns the deduplicated native event codes backing the
// set, in first-added order. This is the subset the allocator actually
// places on counters, as opposed to the preset-level Events list.
func (es *EventSet) NativeCodes() []uint32 {
	return append([]uint32(nil), es.natives...)
}

func (es *EventSet) check(wantState State) error {
	if es.destroyed {
		return errf(ENOEVST, "EventSet destroyed")
	}
	if es.state != wantState {
		if wantState == StateStopped {
			return errf(EISRUN, "EventSet is running")
		}
		return errf(ENOTRUN, "EventSet is stopped")
	}
	return nil
}

// Add appends an event, verifying that the grown set remains countable
// on the platform (non-multiplexed sets must fit the counters; each
// event of a multiplexed set must at least fit alone). A conflicting
// event is rejected with ECNFLCT and the set is left unchanged.
func (es *EventSet) Add(ev Event) error {
	if err := es.check(StateStopped); err != nil {
		return err
	}
	for _, have := range es.events {
		if have == ev {
			return errf(ECNFLCT, "event %s already in set", EventName(ev))
		}
	}
	terms, err := es.thread.sys.resolve(ev)
	if err != nil {
		return err
	}
	// Tentatively merge natives.
	added := []uint32{}
	for _, t := range terms {
		if _, ok := es.nidx[t.code]; !ok {
			es.nidx[t.code] = len(es.natives)
			es.natives = append(es.natives, t.code)
			added = append(added, t.code)
		}
	}
	rollback := func() {
		for _, code := range added {
			delete(es.nidx, code)
		}
		es.natives = es.natives[:len(es.natives)-len(added)]
	}
	if es.multiplexed {
		codes := make([]uint32, len(terms))
		for i, t := range terms {
			codes[i] = t.code
		}
		if _, aerr := es.thread.ctx.Allocate(codes); aerr != nil {
			rollback()
			return errf(ECNFLCT, "event %s unallocatable alone: %v", EventName(ev), aerr)
		}
	} else if _, aerr := es.thread.ctx.Allocate(es.natives); aerr != nil {
		rollback()
		return errf(ECNFLCT, "adding %s: %v", EventName(ev), aerr)
	}
	es.events = append(es.events, ev)
	es.rows = append(es.rows, terms)
	es.vals = make([]uint64, len(es.natives))
	return nil
}

// AddAll adds several events, stopping at the first failure.
func (es *EventSet) AddAll(evs ...Event) error {
	for _, ev := range evs {
		if err := es.Add(ev); err != nil {
			return err
		}
	}
	return nil
}

// Remove deletes an event from a stopped set.
func (es *EventSet) Remove(ev Event) error {
	if err := es.check(StateStopped); err != nil {
		return err
	}
	idx := -1
	for i, have := range es.events {
		if have == ev {
			idx = i
			break
		}
	}
	if idx < 0 {
		return errf(ENOEVNT, "event %s not in set", EventName(ev))
	}
	es.events = append(es.events[:idx], es.events[idx+1:]...)
	es.rows = append(es.rows[:idx], es.rows[idx+1:]...)
	es.rebuildNatives()
	return nil
}

func (es *EventSet) rebuildNatives() {
	es.natives = es.natives[:0]
	clear(es.nidx)
	for _, row := range es.rows {
		for _, t := range row {
			if _, ok := es.nidx[t.code]; !ok {
				es.nidx[t.code] = len(es.natives)
				es.natives = append(es.natives, t.code)
			}
		}
	}
	es.vals = make([]uint64, len(es.natives))
}

// SetMultiplex opts the set into software multiplexing, allowing more
// events than physical counters at the price of estimated counts. Per
// the paper's lesson (§2) this is deliberately a low-level, explicit
// call: estimates from short runs are silently wrong, and the caller is
// expected to know it. interval 0 selects the default slice length.
func (es *EventSet) SetMultiplex(interval uint64) error {
	if err := es.check(StateStopped); err != nil {
		return err
	}
	if interval == 0 {
		interval = es.thread.sys.opts.MultiplexIntervalCycles
	}
	es.multiplexed = true
	es.mpxInterval = interval
	return nil
}

// Multiplexed reports whether the set has multiplexing enabled.
func (es *EventSet) Multiplexed() bool { return es.multiplexed }

// SetDomain selects the execution modes counted: user (the program
// itself), kernel (work the system performs on the program's behalf —
// here the measurement library's own overhead and interrupt handling),
// or both. PAPI_set_domain; the default is both.
func (es *EventSet) SetDomain(d hwsim.Domain) error {
	if err := es.check(StateStopped); err != nil {
		return err
	}
	if d == 0 {
		d = hwsim.DomainAll
	}
	es.domain = d
	return nil
}

// Domain returns the set's counting domain (0 means all).
func (es *EventSet) Domain() hwsim.Domain {
	if es.domain == 0 {
		return hwsim.DomainAll
	}
	return es.domain
}

// SetOverflow arms an overflow callback on an event of the set: every
// threshold occurrences, handler is invoked with the reported
// instruction address. threshold 0 disarms. Derived multi-native
// events dispatch on their first native term, like the C library.
func (es *EventSet) SetOverflow(ev Event, threshold uint64, handler OverflowHandler) error {
	if err := es.check(StateStopped); err != nil {
		return err
	}
	if threshold == 0 {
		es.ovfThreshold = 0
		es.ovfHandler = nil
		return nil
	}
	if handler == nil {
		return errf(EINVAL, "nil overflow handler")
	}
	if es.multiplexed {
		return errf(ENOSUPP, "overflow on a multiplexed EventSet")
	}
	idx := -1
	for i, have := range es.events {
		if have == ev {
			idx = i
			break
		}
	}
	if idx < 0 {
		return errf(ENOEVNT, "event %s not in set", EventName(ev))
	}
	es.ovfEvent = ev
	es.ovfNative = es.rows[idx][0].code
	es.ovfThreshold = threshold
	es.ovfHandler = handler
	return nil
}

// Profil attaches SVR4 profiling to an event: every threshold
// occurrences the reported PC is hashed into the histogram. It is
// sugar over SetOverflow, exactly as PAPI_profil sits on PAPI_overflow.
func (es *EventSet) Profil(p *profil.Profile, ev Event, threshold uint64) error {
	if p == nil {
		return errf(EINVAL, "nil profile")
	}
	es.prof = p
	return es.SetOverflow(ev, threshold, func(_ *EventSet, addr uint64, _ Event) {
		p.Hit(addr)
	})
}

// Profile returns the attached profil histogram, if any.
func (es *EventSet) Profile() *profil.Profile { return es.prof }

// Start begins counting from zero.
func (es *EventSet) Start() error {
	if err := es.check(StateStopped); err != nil {
		return err
	}
	if len(es.events) == 0 {
		return errf(EINVAL, "empty EventSet")
	}
	clear(es.vals)
	if err := es.thread.startSet(es); err != nil {
		return err
	}
	es.state = StateRunning
	return nil
}

func (es *EventSet) startMultiplexed() error {
	eng, err := multiplex.New(es.thread.ctx, es.natives, es.mpxInterval)
	if err != nil {
		return errf(ECNFLCT, "multiplex partition: %v", err)
	}
	if err := eng.Start(); err != nil {
		return errf(ESYS, "multiplex start: %v", err)
	}
	es.mpx = eng
	return nil
}

// refresh brings es.vals up to date with the hardware.
func (es *EventSet) refresh() error {
	if es.state != StateRunning {
		return nil
	}
	if es.mpx != nil {
		return es.mpx.Snapshot(es.vals)
	}
	return es.thread.sync()
}

// compute folds per-native values into per-event results.
func (es *EventSet) compute(dst []int64) error {
	if len(dst) < len(es.events) {
		return errf(EINVAL, "destination holds %d values, need %d", len(dst), len(es.events))
	}
	for i, row := range es.rows {
		var v int64
		for _, t := range row {
			v += t.coef * int64(es.vals[es.nidx[t.code]])
		}
		dst[i] = v
	}
	return nil
}

// Read writes current event values into dst without disturbing
// counting.
func (es *EventSet) Read(dst []int64) error {
	if err := es.check(StateRunning); err != nil {
		return err
	}
	if err := es.refresh(); err != nil {
		return err
	}
	return es.compute(dst)
}

// Accum adds current values into dst and resets the counters to zero,
// leaving the set running (PAPI_accum).
func (es *EventSet) Accum(dst []int64) error {
	if err := es.check(StateRunning); err != nil {
		return err
	}
	if err := es.refresh(); err != nil {
		return err
	}
	tmp := make([]int64, len(es.events))
	if err := es.compute(tmp); err != nil {
		return err
	}
	if len(dst) < len(tmp) {
		return errf(EINVAL, "destination holds %d values, need %d", len(dst), len(tmp))
	}
	for i, v := range tmp {
		dst[i] += v
	}
	return es.zero()
}

// Reset zeroes the counters (running or stopped).
func (es *EventSet) Reset() error {
	if es.destroyed {
		return errf(ENOEVST, "EventSet destroyed")
	}
	if es.state == StateRunning {
		if err := es.refresh(); err != nil {
			return err
		}
	}
	return es.zero()
}

func (es *EventSet) zero() error {
	clear(es.vals)
	if es.mpx != nil && es.state == StateRunning {
		if err := es.mpx.Reset(); err != nil {
			return errf(ESYS, "multiplex reset: %v", err)
		}
	}
	return nil
}

// Stop halts counting and writes final values into dst (may be nil).
func (es *EventSet) Stop(dst []int64) error {
	if err := es.check(StateRunning); err != nil {
		return err
	}
	// stopSet folds the final hardware deltas into es.vals itself.
	if err := es.thread.stopSet(es); err != nil {
		return err
	}
	es.state = StateStopped
	es.mpx = nil
	if dst != nil {
		return es.compute(dst)
	}
	return nil
}

// Cleanup removes all events from a stopped set (PAPI_cleanup_eventset).
func (es *EventSet) Cleanup() error {
	if err := es.check(StateStopped); err != nil {
		return err
	}
	es.events = es.events[:0]
	es.rows = es.rows[:0]
	es.rebuildNatives()
	es.ovfThreshold = 0
	es.ovfHandler = nil
	es.prof = nil
	es.multiplexed = false
	return nil
}

// Destroy releases the set; further use fails with ENOEVST.
func (es *EventSet) Destroy() error {
	if es.state == StateRunning {
		return errf(EISRUN, "destroying a running EventSet")
	}
	es.destroyed = true
	return nil
}

// Footprint estimates the set's memory footprint in bytes, counting its
// slices and maps. The E9 ablation compares footprints and switch
// costs with overlap support on and off.
func (es *EventSet) Footprint() int {
	bytes := cap(es.events)*4 + cap(es.natives)*4 + cap(es.vals)*8
	for _, row := range es.rows {
		bytes += cap(row) * 16
	}
	bytes += len(es.nidx) * 16
	// A thread co-scheduling N overlapping sets keeps union tables
	// whose cost is attributable to the sets that forced them.
	if es.thread.sys.opts.AllowOverlap {
		bytes += cap(es.thread.combined)*4 + cap(es.thread.lastRaw)*8 + cap(es.thread.rawBuf)*8
	}
	return bytes
}
