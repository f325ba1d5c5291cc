package hwsim

import (
	"fmt"
	"math/bits"
)

// OverflowHandler is invoked when a PMU register programmed with an
// overflow threshold crosses it. pc is the program-counter address the
// hardware reports — on out-of-order cores it is skidded several
// instructions past the instruction that caused the event. reg is the
// physical counter index that overflowed.
type OverflowHandler func(pc uint64, reg int)

// Domain selects which execution modes a counter observes, the model
// behind PAPI_set_domain: user-mode work (the program itself), kernel
// mode (system calls made on the program's behalf — here, the
// measurement library's charged overhead and interrupt handling), or
// both.
type Domain uint8

// Counting domains.
const (
	DomainUser Domain = 1 << iota
	DomainKernel
	DomainAll = DomainUser | DomainKernel
)

type pmuReg struct {
	armed     bool
	event     NativeEvent
	domain    Domain
	raw       uint64 // unwrapped count since last Reset
	threshold uint64 // overflow threshold; 0 disables overflow
	nextOvf   uint64 // next raw value at which an overflow fires
}

// PMU models the performance monitoring unit: a small file of counter
// registers, each programmable with one native event, an enable bit,
// and per-register overflow thresholds.
type PMU struct {
	arch      *Arch
	regs      []pmuReg
	running   bool
	widthMask uint64
	handler   OverflowHandler

	// bySignal[s] lists armed register indices whose event mask
	// contains signal s; rebuilt on every Program call. This keeps the
	// per-signal hot path a short slice walk.
	bySignal [NumSignals][]int
}

func newPMU(a *Arch) *PMU {
	var mask uint64
	if a.CounterWidth >= 64 {
		mask = ^uint64(0)
	} else {
		mask = uint64(1)<<a.CounterWidth - 1
	}
	return &PMU{arch: a, regs: make([]pmuReg, a.NumCounters), widthMask: mask}
}

// Program assigns native events to physical registers. assignments maps
// physical counter index to the native event counted there; registers
// not present are disarmed. Programming is rejected while counting.
func (p *PMU) Program(assignments map[int]NativeEvent) error {
	if p.running {
		return fmt.Errorf("hwsim: PMU busy: cannot program while counting")
	}
	for i := range p.regs {
		p.regs[i] = pmuReg{}
	}
	for idx, ev := range assignments {
		if idx < 0 || idx >= len(p.regs) {
			return fmt.Errorf("hwsim: counter index %d out of range (0..%d)", idx, len(p.regs)-1)
		}
		if ev.CounterMask&(1<<uint(idx)) == 0 {
			return fmt.Errorf("hwsim: event %s cannot be counted on counter %d (mask %#x)",
				ev.Name, idx, ev.CounterMask)
		}
		if p.regs[idx].armed {
			return fmt.Errorf("hwsim: counter %d assigned twice", idx)
		}
		p.regs[idx] = pmuReg{armed: true, event: ev, domain: DomainAll}
	}
	p.rebuild()
	return nil
}

func (p *PMU) rebuild() {
	for s := range p.bySignal {
		p.bySignal[s] = p.bySignal[s][:0]
	}
	for i := range p.regs {
		if !p.regs[i].armed {
			continue
		}
		for s := Signal(0); s < NumSignals; s++ {
			if p.regs[i].event.Signals.Has(s) {
				p.bySignal[s] = append(p.bySignal[s], i)
			}
		}
	}
}

// SetDomain restricts every armed register to the given counting
// domain. PAPI sets the domain per EventSet, which maps to all
// registers the set programs.
func (p *PMU) SetDomain(d Domain) {
	if d == 0 {
		d = DomainAll
	}
	for i := range p.regs {
		if p.regs[i].armed {
			p.regs[i].domain = d
		}
	}
}

// SetOverflow arms (threshold > 0) or disarms (threshold == 0) overflow
// interrupts on the physical register idx.
func (p *PMU) SetOverflow(idx int, threshold uint64) error {
	if idx < 0 || idx >= len(p.regs) {
		return fmt.Errorf("hwsim: counter index %d out of range", idx)
	}
	r := &p.regs[idx]
	r.threshold = threshold
	if threshold > 0 {
		r.nextOvf = r.raw + threshold
	} else {
		r.nextOvf = 0
	}
	return nil
}

// SetHandler installs the overflow interrupt handler.
func (p *PMU) SetHandler(h OverflowHandler) { p.handler = h }

// Start enables counting. Counter values are preserved (counting
// resumes; use Reset to zero).
func (p *PMU) Start() { p.running = true }

// Stop disables counting.
func (p *PMU) Stop() { p.running = false }

// Running reports whether the PMU is counting.
func (p *PMU) Running() bool { return p.running }

// Reset zeroes all counter registers and re-bases overflow thresholds.
func (p *PMU) Reset() {
	for i := range p.regs {
		p.regs[i].raw = 0
		if p.regs[i].threshold > 0 {
			p.regs[i].nextOvf = p.regs[i].threshold
		}
	}
}

// Read returns the current register value for physical counter idx, as
// the hardware exposes it: wrapped to the architecture's counter width.
func (p *PMU) Read(idx int) (uint64, error) {
	if idx < 0 || idx >= len(p.regs) {
		return 0, fmt.Errorf("hwsim: counter index %d out of range", idx)
	}
	return p.regs[idx].raw & p.widthMask, nil
}

// ReadAll returns the wrapped values of all physical counters.
func (p *PMU) ReadAll(dst []uint64) {
	for i := range p.regs {
		if i >= len(dst) {
			return
		}
		dst[i] = p.regs[i].raw & p.widthMask
	}
}

// WidthMask exposes the wrap mask; the machine-independent layer uses it
// to extend narrow hardware counters to 64 bits in software.
func (p *PMU) WidthMask() uint64 { return p.widthMask }

// add applies n occurrences of signal s to every armed register whose
// event includes s and whose domain admits the originating mode,
// returning a bitmask of registers that crossed their overflow
// thresholds.
func (p *PMU) add(s Signal, n uint64, mode Domain) uint32 {
	var ovf uint32
	for _, i := range p.bySignal[s] {
		r := &p.regs[i]
		if r.domain&mode == 0 {
			continue
		}
		r.raw += n
		if r.threshold > 0 && r.raw >= r.nextOvf {
			for r.raw >= r.nextOvf {
				r.nextOvf += r.threshold
			}
			ovf |= 1 << uint(i)
		}
	}
	return ovf
}

// fold is add for a batch of user-mode work: every armed register whose
// domain admits user mode gains now[s] − base[s] for each signal s of
// its event. It reports no overflow; the caller folds only when no
// register has a threshold.
func (p *PMU) fold(now, base *[NumSignals]uint64) {
	for i := range p.regs {
		r := &p.regs[i]
		if !r.armed || r.domain&DomainUser == 0 {
			continue
		}
		for m := uint32(r.event.Signals); m != 0; m &= m - 1 {
			s := bits.TrailingZeros32(m)
			r.raw += now[s] - base[s]
		}
	}
}
