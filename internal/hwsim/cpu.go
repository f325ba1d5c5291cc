package hwsim

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Stream supplies instructions to a CPU. Next lends the stream's next
// instructions, in order; an empty slice ends the stream. The slice
// belongs to the stream: the caller only reads it, and it is valid
// until that stream's next Next (or Reset, for streams that have one).
// So an overflow or timer handler may Run any other stream on the core
// it interrupted, but must not advance the one being retired.
// Implementations generate at most a batch at a time, so arbitrarily
// long programs run in constant memory.
//
// A stream may promise more with a method Frozen() bool: true, asked
// right after a Next, says the slice that Next lent is frozen — no one
// writes its instructions again. The core may then keep the slice past
// the stream's next Next, and take a later frozen slice with the same
// backing array and length for the same instructions (see quietSlice).
// A stream that rewrites its buffer must never report it frozen.
type Stream interface {
	Next() []Instr
}

// SliceStream adapts a fixed instruction slice into a Stream.
type SliceStream struct {
	Instrs []Instr
	pos    int
}

// Next implements Stream: everything not yet lent, once.
func (s *SliceStream) Next() []Instr {
	b := s.Instrs[s.pos:]
	s.pos = len(s.Instrs)
	return b
}

// pendingOvf is an overflow interrupt in flight: on out-of-order cores
// the interrupt is delivered `skid` retired instructions after the
// event, and the PC reported is whatever instruction is retiring then.
type pendingOvf struct {
	reg  int
	skid int
}

// CPU is one simulated core: pipeline cost model, private memory
// hierarchy, branch predictor, PMU and optional hardware sampler. It is
// not safe for concurrent use; the machine-independent layer gives each
// simulated thread its own CPU, mirroring per-thread counter contexts.
type CPU struct {
	arch *Arch
	pmu  *PMU
	smp  *sampler

	l1d, l1i, l2 *cache
	dtlb         *tlb
	bp           *branchPredictor
	rng          rng

	cycles  uint64 // virtual (process) cycles
	stolen  uint64 // cycles consumed by simulated competing processes
	retired uint64
	truth   [NumSignals]uint64 // ground-truth signal totals, always counted

	// batch is set while ExecSlice retires on truth alone because nothing
	// can read a register before the slice ends (see openBatch); base is
	// truth as of the registers' last fold.
	batch bool
	base  [NumSignals]uint64

	// memo is the last quiet slice, kept while it was frozen and left
	// the core at a fixed point (see quietSlice); instrs is nil when
	// there is none.
	memo struct {
		instrs []Instr            // the frozen slice itself
		delta  [NumSignals]uint64 // truth it raised, SigCycles excluded
		cycles uint64
	}

	pending []pendingOvf
	latched uint32 // registers that overflowed in kernel mode, due at the next instruction

	timerInterval uint64
	timerNext     uint64
	timerFn       func()
	timerFiring   bool

	stealQuantum uint64
	stealAmount  uint64
	nextSteal    uint64
}

// NewCPU builds a core for the given architecture. The seed drives every
// stochastic choice (skid, sampling jitter) so runs are reproducible.
func NewCPU(a *Arch, seed uint64) (*CPU, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	c := &CPU{
		arch: a,
		l1d:  newCache(a.L1D),
		l1i:  newCache(a.L1I),
		l2:   newCache(a.L2),
		dtlb: newTLB(a.TLBEntries, a.PageBytes),
		bp:   newBranchPredictor(a.PredictorEntries),
		rng:  newRNG(seed),
	}
	c.pmu = newPMU(a)
	c.smp = newSampler(&c.rng)
	return c, nil
}

// MustNewCPU is NewCPU that panics on an invalid architecture; intended
// for the package's own built-in architecture table.
func MustNewCPU(a *Arch, seed uint64) *CPU {
	c, err := NewCPU(a, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Arch returns the architecture this core implements.
func (c *CPU) Arch() *Arch { return c.arch }

// PMU returns the core's performance monitoring unit.
func (c *CPU) PMU() *PMU { return c.pmu }

// Cycles returns the virtual cycles consumed by the simulated process.
func (c *CPU) Cycles() uint64 { return c.cycles }

// RealCycles returns wall-clock cycles: process cycles plus cycles
// stolen by competing processes (see SetInterference).
func (c *CPU) RealCycles() uint64 { return c.cycles + c.stolen }

// Retired returns the number of retired instructions.
func (c *CPU) Retired() uint64 { return c.retired }

// Truth returns the ground-truth total of a signal since construction.
// It exists for calibration and tests; real hardware has no such oracle.
func (c *CPU) Truth(s Signal) uint64 { return c.truth[s] }

// SetTimer installs a periodic cycle timer: fn runs every interval
// cycles of process time. interval 0 removes the timer. The multiplexing
// layer uses this as its time-slicing interrupt.
func (c *CPU) SetTimer(interval uint64, fn func()) {
	c.timerInterval = interval
	c.timerFn = fn
	if interval > 0 {
		c.timerNext = c.cycles + interval
	}
}

// SetInterference simulates a multi-user machine: every quantum cycles
// of process progress, steal cycles of wall-clock time go to other
// processes. Virtual time excludes them; real time includes them.
func (c *CPU) SetInterference(quantum, steal uint64) {
	c.stealQuantum = quantum
	c.stealAmount = steal
	if quantum > 0 {
		c.nextSteal = c.cycles + quantum
	}
}

// ConfigureSampling arms the hardware sampling engine (ProfileMe/EAR
// style) with a mean period in instructions. Returns an error on
// architectures without hardware sampling support.
func (c *CPU) ConfigureSampling(period int, h DrainHandler) error {
	if !c.arch.HWSampling {
		return fmt.Errorf("hwsim: %s has no hardware sampling support", c.arch.Platform)
	}
	if period <= 0 {
		return fmt.Errorf("hwsim: sampling period must be positive")
	}
	c.smp.configure(period, c.arch.SampleBufEntries, h)
	return nil
}

// DisableSampling stops the sampling engine, flushing buffered samples.
func (c *CPU) DisableSampling() {
	c.smp.drain()
	c.smp.disable()
}

// FlushSamples drains any buffered samples to the handler immediately,
// charging the drain interrupt cost. Returns the samples drained.
func (c *CPU) FlushSamples() int {
	n := c.smp.drain()
	if n > 0 {
		c.advanceKernel(c.arch.SampleDrainCost)
	}
	return n
}

// SamplesTaken returns the number of hardware samples taken since the
// sampler was configured.
func (c *CPU) SamplesTaken() uint64 { return c.smp.taken }

// ResetMemorySystem empties caches, TLB and branch predictor state, so
// experiments can start from a cold machine.
func (c *CPU) ResetMemorySystem() {
	c.l1d.reset()
	c.l1i.reset()
	c.l2.reset()
	c.dtlb.reset()
	c.bp.reset()
	c.memo.instrs = nil
}

// Charge consumes library-overhead work on this core: the given number
// of cycles and instructions are executed on behalf of the measurement
// infrastructure itself. Like real hardware, running counters observe
// this perturbation.
func (c *CPU) Charge(cycles, instrs uint64) {
	if instrs > 0 {
		c.truth[SigInstrs] += instrs
		c.truth[SigIntOps] += instrs
		if c.pmu.running {
			c.latched |= c.pmu.add(SigInstrs, instrs, DomainKernel) |
				c.pmu.add(SigIntOps, instrs, DomainKernel)
		}
		c.retired += instrs
	}
	c.advanceKernel(cycles)
}

// advance moves user-mode time forward and returns the registers whose
// overflow thresholds the cycles crossed (see advanceMode).
func (c *CPU) advance(n uint64) uint32 { return c.advanceMode(n, DomainUser) }

// advanceKernel moves kernel-mode time forward. An overflow it raises
// cannot interrupt the kernel: it is latched and delivered at the next
// retired instruction.
func (c *CPU) advanceKernel(n uint64) { c.latched |= c.advanceMode(n, DomainKernel) }

// advanceMode moves time forward by n cycles in the given execution
// mode, raising SigCycles and firing the periodic timer / interference
// model as thresholds pass. It returns the registers whose overflow
// thresholds the cycles crossed.
func (c *CPU) advanceMode(n uint64, mode Domain) uint32 {
	if n == 0 {
		return 0
	}
	c.cycles += n
	c.truth[SigCycles] += n
	var ovf uint32
	if c.pmu.running && !c.batch {
		ovf = c.pmu.add(SigCycles, n, mode)
	}
	if c.stealQuantum > 0 {
		for c.cycles >= c.nextSteal {
			c.stolen += c.stealAmount
			c.nextSteal += c.stealQuantum
		}
	}
	// The firing guard prevents re-entry: a tick handler that charges
	// cycles (reading counters costs time) must not recursively fire
	// the next tick from inside its own Charge. A batch is folded before
	// the handler reads the registers and rebased after it, so what the
	// handler charged is counted once and what it armed takes effect.
	if c.timerFn != nil && c.timerInterval > 0 && !c.timerFiring {
		c.timerFiring = true
		for c.cycles >= c.timerNext {
			c.timerNext += c.timerInterval
			batch := c.batch
			c.closeBatch()
			c.timerFn()
			if batch {
				c.openBatch()
			}
		}
		c.timerFiring = false
	}
	return ovf
}

// Run executes the stream to completion, retiring each lent batch in
// place: the core owns no instruction memory, so a run allocates
// nothing of its own and a handler may Run another stream on the core
// it interrupted (see Stream).
func (c *CPU) Run(s Stream) {
	f, _ := s.(interface{ Frozen() bool }) // see Stream
	for b := s.Next(); len(b) > 0; b = s.Next() {
		c.execSlice(b, f != nil && f.Frozen())
	}
}

// ExecSlice executes the instructions in order. When nothing can read a
// register before the slice ends, it counts the batch, not the
// instruction: the slice retires on truth alone and the registers are
// brought up to date from truth once, at the end (and before a timer
// handler runs). With no timer installed either, nothing at all can
// observe the core before the slice ends, so the slice retires quietly
// (see quietSlice). The counts are exactly those of retiring one
// instruction at a time.
func (c *CPU) ExecSlice(instrs []Instr) { c.execSlice(instrs, false) }

// execSlice is ExecSlice for a slice that may be frozen (see Stream).
func (c *CPU) execSlice(instrs []Instr, frozen bool) {
	c.openBatch()
	if c.batch && (c.timerFn == nil || c.timerInterval == 0) {
		c.quietSlice(instrs, frozen)
	} else {
		// A handler may Run another stream inside this slice, and the
		// slice moves the memory system under any memo it would keep.
		c.memo.instrs = nil
		for i := range instrs {
			c.exec(&instrs[i], false)
		}
		c.memo.instrs = nil
	}
	c.closeBatch()
}

// quietSlice retires a slice in one loop and advances its time once.
// A slice that raised no L1I, L1D or DTLB miss changed no tag and never
// probed L2, and one whose logged predictor moves cancel out left the
// predictor where it was (branchPredictor.endLog). The core is then at
// a fixed point: the same instructions again would hit and predict
// exactly as they did, and would leave every set's LRU order where it
// is. A frozen such slice is kept as the memo, and the same frozen
// slice next — the same backing array and length, so the same
// instructions — is replayed from it: its truth delta, retirements and
// cycles, without probing or comparing anything. Keeping the slice also
// keeps its array alive, so no other slice can come to lie there.
// ResetMemorySystem and every per-instruction slice drop the memo.
func (c *CPU) quietSlice(instrs []Instr, frozen bool) {
	m := &c.memo
	if frozen && len(instrs) == len(m.instrs) && unsafe.SliceData(instrs) == unsafe.SliceData(m.instrs) {
		for s, d := range m.delta {
			c.truth[s] += d
		}
		c.retired += uint64(len(instrs))
		c.advance(m.cycles)
		return
	}
	if frozen {
		c.bp.startLog()
	}
	var cycles uint64
	for i := range instrs {
		cycles += uint64(c.exec(&instrs[i], true))
	}
	c.retired += uint64(len(instrs))
	t, b := &c.truth, &c.base // base is truth as the slice found it
	m.instrs = nil
	if frozen && c.bp.endLog() && t[SigL1IMiss] == b[SigL1IMiss] &&
		t[SigL1DMiss] == b[SigL1DMiss] && t[SigTLBDMiss] == b[SigTLBDMiss] {
		m.instrs = instrs
		for s := range m.delta {
			m.delta[s] = t[s] - b[s]
		}
		m.cycles = cycles
	}
	c.advance(cycles)
}

// openBatch defers register updates when the PMU is counting and
// nothing can observe a register mid-batch: no register has an overflow
// threshold, no overflow is in flight (skidded or latched) and the
// sampler is off. Then the only signals raised are the user-mode ones
// exec retires, and truth's movement is what the registers would have
// counted.
func (c *CPU) openBatch() {
	c.batch = c.pmu.running && len(c.pending) == 0 && c.latched == 0 && !c.smp.enabled
	for i := range c.pmu.regs {
		if c.pmu.regs[i].threshold > 0 {
			c.batch = false
		}
	}
	if c.batch {
		c.base = c.truth
	}
}

// closeBatch folds a deferred batch into the registers and ends it.
func (c *CPU) closeBatch() {
	if c.batch {
		c.pmu.fold(&c.truth, &c.base)
		c.batch = false
	}
}

// exec retires one instruction and returns its cycles. It is the one
// retirement body both of ExecSlice's loops call: the memory system is
// probed in order (fetch through L1I and L2; a load's or store's DTLB,
// L1D and L2; a branch's predictor), and each signal is raised on truth
// as it fires. Quiet, that is all, and the caller advances time for the
// whole slice. Otherwise the instruction is followed by what may
// observe it: PMU, time, overflow skid, sampling.
func (c *CPU) exec(in *Instr, quiet bool) uint32 {
	a, t := c.arch, &c.truth
	cost := a.Latency[in.Op]
	var sigs SignalMask

	// Instruction fetch through the I-cache.
	if !c.l1i.access(in.Addr) {
		t[SigL1IMiss]++
		sigs |= 1<<SigL1IMiss | 1<<SigL2Access
		cost += a.L1MissPenalty
		if !c.l2.access(in.Addr) {
			sigs |= 1 << SigL2Miss
			cost += a.L2MissPenalty
		}
	}

	t[SigInstrs]++
	sigs |= 1 << SigInstrs
	switch in.Op {
	case OpInt, OpNop:
		t[SigIntOps]++
		sigs |= 1 << SigIntOps
	case OpLoad:
		t[SigLoads]++
		sigs |= 1 << SigLoads
		cost += c.dataAccess(in.Mem, &sigs)
	case OpStore:
		t[SigStores]++
		sigs |= 1 << SigStores
		cost += c.dataAccess(in.Mem, &sigs)
	case OpFPAdd:
		t[SigFPAdd]++
		sigs |= 1 << SigFPAdd
	case OpFPMul:
		t[SigFPMul]++
		sigs |= 1 << SigFPMul
	case OpFPDiv:
		t[SigFPDiv]++
		sigs |= 1 << SigFPDiv
	case OpFMA:
		t[SigFMA]++
		sigs |= 1 << SigFMA
	case OpFPRound:
		t[SigFPRound]++
		sigs |= 1 << SigFPRound
	case OpBranch:
		t[SigBranch]++
		sigs |= 1 << SigBranch
		if in.Taken {
			t[SigBranchTaken]++
			sigs |= 1 << SigBranchTaken
		}
		if !c.bp.predict(in.Addr, in.Taken) {
			t[SigBranchMiss]++
			sigs |= 1 << SigBranchMiss
			cost += a.MispredictPenalty
		}
	}

	// A signal is raised once per instruction: one whose fetch and data
	// both reach L2 counts one L2 access.
	if sigs&(1<<SigL2Access) != 0 {
		t[SigL2Access]++
		if sigs&(1<<SigL2Miss) != 0 {
			t[SigL2Miss]++
		}
	}
	stall := uint64(cost - a.Latency[in.Op])
	t[SigStallCycles] += stall
	if quiet {
		return cost
	}

	// Raise the signals on the PMU too, unless the batch is folded at
	// its end.
	var ovf uint32
	late := c.latched
	c.latched = 0
	if c.pmu.running && !c.batch {
		for m := uint32(sigs); m != 0; m &= m - 1 {
			ovf |= c.pmu.add(Signal(bits.TrailingZeros32(m)), 1, DomainUser)
		}
		if stall > 0 {
			ovf |= c.pmu.add(SigStallCycles, stall, DomainUser)
		}
	}
	if stall > 0 {
		sigs |= 1 << SigStallCycles
	}

	c.retired++
	ovf |= c.advance(uint64(cost))

	// Overflow interrupts. One raised in kernel mode before this
	// instruction is delivered as it retires; one it raised itself is
	// immediate on in-order cores, skidded on OOO.
	for ; late != 0; late &= late - 1 {
		c.deliverOverflow(in.Addr, bits.TrailingZeros32(late))
	}
	if ovf != 0 {
		for r := 0; r < len(c.pmu.regs); r++ {
			if ovf&(1<<uint(r)) == 0 {
				continue
			}
			skid := a.SkidMin
			if a.SkidMax > a.SkidMin {
				skid += c.rng.intn(a.SkidMax - a.SkidMin + 1)
			}
			if skid == 0 {
				c.deliverOverflow(in.Addr, r)
			} else {
				c.pending = append(c.pending, pendingOvf{reg: r, skid: skid})
			}
		}
	}
	if len(c.pending) > 0 {
		kept := c.pending[:0]
		for _, p := range c.pending {
			p.skid--
			if p.skid <= 0 {
				c.deliverOverflow(in.Addr, p.reg)
			} else {
				kept = append(kept, p)
			}
		}
		c.pending = kept
	}

	// Hardware sampling engine.
	if c.smp.enabled && c.smp.step(in.Addr, in.Op, sigs, cost) {
		c.advanceKernel(a.SampleDrainCost)
		c.smp.drain()
	}
	return cost
}

// dataAccess runs a load/store address through DTLB, L1D and L2,
// returning the added stall cycles. It raises the TLB and L1D signals
// on truth and accumulates every signal it raised, L2's included, which
// exec counts once per instruction.
func (c *CPU) dataAccess(addr uint64, sigs *SignalMask) uint32 {
	a, t := c.arch, &c.truth
	var extra uint32
	if !c.dtlb.access(addr) {
		t[SigTLBDMiss]++
		*sigs |= 1 << SigTLBDMiss
		extra += a.TLBMissPenalty
	}
	t[SigL1DAccess]++
	*sigs |= 1 << SigL1DAccess
	if !c.l1d.access(addr) {
		t[SigL1DMiss]++
		*sigs |= 1<<SigL1DMiss | 1<<SigL2Access
		extra += a.L1MissPenalty
		if !c.l2.access(addr) {
			*sigs |= 1 << SigL2Miss
			extra += a.L2MissPenalty
		}
	}
	return extra
}

// deliverOverflow charges the interrupt cost (kernel mode) and invokes
// the handler.
func (c *CPU) deliverOverflow(pc uint64, reg int) {
	c.advanceKernel(c.arch.InterruptCost)
	if h := c.pmu.handler; h != nil {
		h(pc, reg)
	}
}
