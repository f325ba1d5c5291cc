// Package workload provides synthetic instruction-stream programs for
// the simulated machines: dense matrix multiply, the STREAM triad, a
// pointer chase, a 5-point stencil, a branchy reducer, a mixed-
// precision kernel and a phased program. Each workload knows its
// analytically expected operation counts, which is what calibration
// experiments (papi_calibrate, E1, E6) measure against — the same role
// the paper's micro-benchmarks with "expected counts" play in §4.
//
// Programs implement papi.Stream (hwsim.Stream) and generate
// instructions lazily, a batch at a time, so arbitrarily long runs
// execute in constant memory (one batch: 4,096 instructions, 96 KiB). A
// program that fits one batch generates it once, lends it again on
// every later run and reports it frozen (hwsim.Stream's Frozen), so a
// core at a fixed point replays it by identity; a longer program
// regenerates into the same batch and never reports it frozen. All
// programs are deterministic.
package workload

import (
	"fmt"

	"repro/internal/hwsim"
)

// TextBase is the text address where workload code is laid out.
const TextBase uint64 = 0x400000

// DataBase is the heap address where workloads place their arrays when
// not bound to a simulated allocator.
const DataBase uint64 = 0x20000000

// Region is a contiguous text range with a name — the simulated
// equivalent of a function symbol, used by profiling tools to correlate
// addresses back to "source".
type Region struct {
	Name string
	Lo   uint64 // first instruction address
	Hi   uint64 // one past the last instruction address
}

// Contains reports whether pc falls inside the region.
func (r Region) Contains(pc uint64) bool { return pc >= r.Lo && pc < r.Hi }

// Expected holds a workload's analytically known event counts. A zero
// field means "not predicted" rather than "zero occurrences" — check
// the workload's documentation.
type Expected struct {
	Instrs   uint64
	FPAdd    uint64
	FPMul    uint64
	FPDiv    uint64
	FMA      uint64
	FPRound  uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
}

// FPInstrs returns the expected floating-point arithmetic instruction
// count (FMA counts once; rounding/conversions excluded).
func (e Expected) FPInstrs() uint64 { return e.FPAdd + e.FPMul + e.FPDiv + e.FMA }

// FLOPs returns the expected floating-point operation count (FMA
// counts twice).
func (e Expected) FLOPs() uint64 { return e.FPAdd + e.FPMul + e.FPDiv + 2*e.FMA }

// Program is a runnable workload.
type Program interface {
	hwsim.Stream
	// Name identifies the workload and its parameters.
	Name() string
	// Regions lists the program's text regions, in address order.
	Regions() []Region
	// Expected returns the analytic operation counts for a full run.
	Expected() Expected
	// Reset rewinds the program so it can be run again. A program
	// that fit one batch keeps its instructions and lends them again;
	// a longer one regenerates them.
	Reset()
}

// batchInstrs is how many instructions a program generates before it
// lends them: one batch is the most memory a program holds (96 KiB of
// hwsim.Instr), and a program that fits one is generated once.
const batchInstrs = 4096

// iterProgram drives a per-iteration generator: gen appends iteration
// i's instructions to the queue. Next generates whole iterations into
// the queue until the next one would not fit a batch, and lends the
// queue. When the first batch ended the program, the queue is the
// program: Reset rewinds without discarding it and every later run
// lends it again, ungenerated, and the queue is frozen: nothing writes
// it again. A longer program regenerates batch by batch into the same
// queue: gen is deterministic from iteration 0, so for it too Reset is
// just a rewind, but its queue is never frozen.
type iterProgram struct {
	name     string
	regions  []Region
	expected Expected
	iters    int
	gen      func(i int, q []hwsim.Instr) []hwsim.Instr

	done  int           // iterations lent so far
	queue []hwsim.Instr // the batch last lent
	whole bool          // queue holds every iteration
}

func (p *iterProgram) Name() string       { return p.name }
func (p *iterProgram) Regions() []Region  { return p.regions }
func (p *iterProgram) Expected() Expected { return p.expected }

func (p *iterProgram) Reset() { p.done = 0 }

// Frozen implements hwsim.Stream's promise: the batch last lent is
// never written again once it holds the whole program.
func (p *iterProgram) Frozen() bool { return p.whole }

func (p *iterProgram) Next() []hwsim.Instr {
	if p.done >= p.iters {
		return nil
	}
	if p.whole {
		p.done = p.iters
		return p.queue
	}
	if p.queue == nil {
		p.queue = make([]hwsim.Instr, 0, min(p.expected.Instrs, batchInstrs))
	}
	first := p.done == 0
	q := p.queue[:0]
	for p.done < p.iters {
		n := len(q)
		q = p.gen(p.done, q)
		p.done++
		if len(q)+(len(q)-n) > batchInstrs {
			break // another iteration as long as this one would not fit
		}
	}
	p.queue = q
	p.whole = first && p.done == p.iters
	return q
}

// emitter lays out instructions at sequential text addresses.
type emitter struct {
	pc uint64
	q  []hwsim.Instr
}

func (e *emitter) op(op hwsim.Op) {
	e.q = append(e.q, hwsim.Instr{Op: op, Addr: e.pc})
	e.pc += hwsim.InstrBytes
}

func (e *emitter) mem(op hwsim.Op, addr uint64) {
	e.q = append(e.q, hwsim.Instr{Op: op, Addr: e.pc, Mem: addr})
	e.pc += hwsim.InstrBytes
}

func (e *emitter) branch(taken bool) {
	e.q = append(e.q, hwsim.Instr{Op: hwsim.OpBranch, Addr: e.pc, Taken: taken})
	e.pc += hwsim.InstrBytes
}

// MatMulConfig parameterizes the dense matrix multiply.
type MatMulConfig struct {
	N      int    // matrix dimension
	UseFMA bool   // fuse multiply-add (FMA hardware)
	BaseA  uint64 // array base addresses; zero selects defaults
	BaseB  uint64
	BaseC  uint64
}

// MatMul builds a naive dense N×N matrix multiply, the canonical
// FLOP-calibration kernel: 2·N³ floating-point operations.
func MatMul(cfg MatMulConfig) Program {
	n := cfg.N
	if n <= 0 {
		n = 32
	}
	elems := uint64(n) * uint64(n) * 8
	baseA, baseB, baseC := cfg.BaseA, cfg.BaseB, cfg.BaseC
	if baseA == 0 {
		baseA = DataBase
	}
	if baseB == 0 {
		baseB = baseA + elems
	}
	if baseC == 0 {
		baseC = baseB + elems
	}
	un := uint64(n)
	// One iteration = one (i,j) output element: n×(2 loads + mul/add or
	// fma) + 1 store + 1 loop branch.
	perIter := 0
	if cfg.UseFMA {
		perIter = 3*n + 2
	} else {
		perIter = 4*n + 2
	}
	p := &iterProgram{
		name:  fmt.Sprintf("matmul(n=%d,fma=%v)", n, cfg.UseFMA),
		iters: n * n,
	}
	p.regions = []Region{{Name: "matmul_kernel", Lo: TextBase, Hi: TextBase + uint64(perIter)*hwsim.InstrBytes}}
	nn := uint64(n) * uint64(n)
	exp := Expected{
		Loads:    2 * nn * un,
		Stores:   nn,
		Branches: nn,
	}
	if cfg.UseFMA {
		exp.FMA = nn * un
		exp.Instrs = nn * (3*un + 2)
	} else {
		exp.FPMul = nn * un
		exp.FPAdd = nn * un
		exp.Instrs = nn * (4*un + 2)
	}
	p.expected = exp
	p.gen = func(iter int, q []hwsim.Instr) []hwsim.Instr {
		i := uint64(iter) / un
		j := uint64(iter) % un
		e := emitter{pc: TextBase, q: q}
		for k := uint64(0); k < un; k++ {
			e.mem(hwsim.OpLoad, baseA+(i*un+k)*8)
			e.mem(hwsim.OpLoad, baseB+(k*un+j)*8)
			if cfg.UseFMA {
				e.op(hwsim.OpFMA)
			} else {
				e.op(hwsim.OpFPMul)
				e.op(hwsim.OpFPAdd)
			}
		}
		e.mem(hwsim.OpStore, baseC+(i*un+j)*8)
		e.branch(iter != n*n-1)
		return e.q
	}
	return p
}

// TriadConfig parameterizes the STREAM triad.
type TriadConfig struct {
	N    int // vector length
	Base uint64
	Reps int // repetitions over the vectors
}

// Triad builds the STREAM triad a[i] = b[i] + s·c[i]: a bandwidth-bound
// kernel with 2 loads, 1 store, 1 mul and 1 add per element.
func Triad(cfg TriadConfig) Program {
	n := cfg.N
	if n <= 0 {
		n = 4096
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 1
	}
	base := cfg.Base
	if base == 0 {
		base = DataBase
	}
	un := uint64(n)
	baseB := base + un*8
	baseC := base + 2*un*8
	total := uint64(n) * uint64(reps)
	p := &iterProgram{
		name:  fmt.Sprintf("triad(n=%d,reps=%d)", n, reps),
		iters: n * reps,
		expected: Expected{
			Instrs:   6 * total,
			FPAdd:    total,
			FPMul:    total,
			Loads:    2 * total,
			Stores:   total,
			Branches: total,
		},
	}
	p.regions = []Region{{Name: "triad_kernel", Lo: TextBase, Hi: TextBase + 6*hwsim.InstrBytes}}
	p.gen = func(iter int, q []hwsim.Instr) []hwsim.Instr {
		i := uint64(iter) % un
		e := emitter{pc: TextBase, q: q}
		e.mem(hwsim.OpLoad, baseB+i*8)
		e.mem(hwsim.OpLoad, baseC+i*8)
		e.op(hwsim.OpFPMul)
		e.op(hwsim.OpFPAdd)
		e.mem(hwsim.OpStore, base+i*8)
		e.branch(iter != p.iters-1)
		return e.q
	}
	return p
}

// ChaseConfig parameterizes the pointer chase.
type ChaseConfig struct {
	Nodes int // linked-list length (each node one cache line apart)
	Steps int // dereferences to perform
	Base  uint64
	Seed  uint64
}

// PointerChase builds a dependent-load random walk: the classic
// latency-bound, TLB- and cache-hostile kernel.
func PointerChase(cfg ChaseConfig) Program {
	nodes := cfg.Nodes
	if nodes <= 0 {
		nodes = 1 << 14
	}
	steps := cfg.Steps
	if steps <= 0 {
		steps = nodes * 4
	}
	base := cfg.Base
	if base == 0 {
		base = DataBase
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	// A Sattolo-style cycle through all nodes, from a deterministic
	// xorshift, so every dereference is a cold-ish random line.
	perm := make([]uint32, nodes)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := seed
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for i := nodes - 1; i > 0; i-- {
		j := next(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	order := make([]uint32, nodes)
	for i := 0; i < nodes; i++ {
		order[perm[i]] = perm[(i+1)%nodes]
	}
	p := &iterProgram{
		name:  fmt.Sprintf("chase(nodes=%d,steps=%d)", nodes, steps),
		iters: steps,
		expected: Expected{
			Instrs:   2 * uint64(steps),
			Loads:    uint64(steps),
			Branches: uint64(steps),
		},
	}
	p.regions = []Region{{Name: "chase_kernel", Lo: TextBase, Hi: TextBase + 2*hwsim.InstrBytes}}
	cur := uint32(0)
	p.gen = func(iter int, q []hwsim.Instr) []hwsim.Instr {
		if iter == 0 {
			cur = 0
		}
		e := emitter{pc: TextBase, q: q}
		e.mem(hwsim.OpLoad, base+uint64(cur)*64)
		e.branch(iter != steps-1)
		cur = order[cur]
		return e.q
	}
	return p
}

// StencilConfig parameterizes the 2-D stencil sweep.
type StencilConfig struct {
	N      int // grid dimension
	Sweeps int
	Base   uint64
}

// Stencil builds a 5-point Jacobi sweep over an N×N grid: 5 loads,
// 4 adds, 1 mul, 1 store per interior point.
func Stencil(cfg StencilConfig) Program {
	n := cfg.N
	if n <= 2 {
		n = 64
	}
	sweeps := cfg.Sweeps
	if sweeps <= 0 {
		sweeps = 1
	}
	base := cfg.Base
	if base == 0 {
		base = DataBase
	}
	un := uint64(n)
	out := base + un*un*8
	inner := uint64(n-2) * uint64(n-2) * uint64(sweeps)
	p := &iterProgram{
		name:  fmt.Sprintf("stencil(n=%d,sweeps=%d)", n, sweeps),
		iters: (n - 2) * (n - 2) * sweeps,
		expected: Expected{
			Instrs:   12 * inner,
			FPAdd:    4 * inner,
			FPMul:    inner,
			Loads:    5 * inner,
			Stores:   inner,
			Branches: inner,
		},
	}
	p.regions = []Region{{Name: "stencil_kernel", Lo: TextBase, Hi: TextBase + 12*hwsim.InstrBytes}}
	per := n - 2
	p.gen = func(iter int, q []hwsim.Instr) []hwsim.Instr {
		k := iter % (per * per)
		i := uint64(k/per) + 1
		j := uint64(k%per) + 1
		e := emitter{pc: TextBase, q: q}
		e.mem(hwsim.OpLoad, base+(i*un+j)*8)
		e.mem(hwsim.OpLoad, base+((i-1)*un+j)*8)
		e.mem(hwsim.OpLoad, base+((i+1)*un+j)*8)
		e.mem(hwsim.OpLoad, base+(i*un+j-1)*8)
		e.mem(hwsim.OpLoad, base+(i*un+j+1)*8)
		e.op(hwsim.OpFPAdd)
		e.op(hwsim.OpFPAdd)
		e.op(hwsim.OpFPAdd)
		e.op(hwsim.OpFPAdd)
		e.op(hwsim.OpFPMul)
		e.mem(hwsim.OpStore, out+(i*un+j)*8)
		e.branch(iter != p.iters-1)
		return e.q
	}
	return p
}

// BranchyConfig parameterizes the data-dependent branch kernel.
type BranchyConfig struct {
	N    int
	Seed uint64
	Base uint64
}

// Branchy builds a reducer whose inner branch depends on pseudo-random
// data — a mispredict generator for BR_MSP experiments.
func Branchy(cfg BranchyConfig) Program {
	n := cfg.N
	if n <= 0 {
		n = 1 << 14
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0xb4a2c
	}
	base := cfg.Base
	if base == 0 {
		base = DataBase
	}
	p := &iterProgram{
		name:  fmt.Sprintf("branchy(n=%d)", n),
		iters: n,
		expected: Expected{
			Instrs:   4 * uint64(n),
			Loads:    uint64(n),
			Branches: 2 * uint64(n),
		},
	}
	p.regions = []Region{{Name: "branchy_kernel", Lo: TextBase, Hi: TextBase + 4*hwsim.InstrBytes}}
	p.gen = func(iter int, q []hwsim.Instr) []hwsim.Instr {
		h := (uint64(iter) + seed) * 0x9e3779b97f4a7c15
		e := emitter{pc: TextBase, q: q}
		e.mem(hwsim.OpLoad, base+uint64(iter%4096)*8)
		e.branch(h>>63 == 1) // data-dependent: ~50% taken
		e.op(hwsim.OpInt)
		e.branch(iter != n-1) // loop branch: predictable
		return e.q
	}
	return p
}

// MixedPrecisionConfig parameterizes the rounding-instruction kernel.
type MixedPrecisionConfig struct {
	N int
}

// MixedPrecision builds the kernel behind the paper's POWER3
// discrepancy (§4): code converting between single and double precision
// executes extra rounding instructions, which some platforms' FP events
// count as floating-point instructions. Per iteration: 1 load, 1 add,
// 1 mul, 1 round/convert, 1 store.
func MixedPrecision(cfg MixedPrecisionConfig) Program {
	n := cfg.N
	if n <= 0 {
		n = 1 << 14
	}
	p := &iterProgram{
		name:  fmt.Sprintf("mixedprec(n=%d)", n),
		iters: n,
		expected: Expected{
			Instrs:   6 * uint64(n),
			FPAdd:    uint64(n),
			FPMul:    uint64(n),
			FPRound:  uint64(n),
			Loads:    uint64(n),
			Stores:   uint64(n),
			Branches: uint64(n),
		},
	}
	p.regions = []Region{{Name: "mixedprec_kernel", Lo: TextBase, Hi: TextBase + 6*hwsim.InstrBytes}}
	p.gen = func(iter int, q []hwsim.Instr) []hwsim.Instr {
		e := emitter{pc: TextBase, q: q}
		e.mem(hwsim.OpLoad, DataBase+uint64(iter%8192)*8)
		e.op(hwsim.OpFPAdd)
		e.op(hwsim.OpFPMul)
		e.op(hwsim.OpFPRound) // double → single conversion
		e.mem(hwsim.OpStore, DataBase+(1<<20)+uint64(iter%8192)*4)
		e.branch(iter != n-1)
		return e.q
	}
	return p
}

// Concat runs programs back to back, concatenating their streams. The
// phased program behind the perfometer trace (Figure 2) is a Concat of
// compute-bound and memory-bound phases: the FLOP rate visibly dips in
// the memory phases.
type Concat struct {
	Label    string
	Programs []Program
	cur      int
}

// NewConcat builds a sequential composition of programs.
func NewConcat(label string, progs ...Program) *Concat {
	return &Concat{Label: label, Programs: progs}
}

// Name implements Program.
func (c *Concat) Name() string { return c.Label }

// Regions implements Program: the union of phase regions.
func (c *Concat) Regions() []Region {
	var out []Region
	seen := map[string]bool{}
	for _, p := range c.Programs {
		for _, r := range p.Regions() {
			if !seen[r.Name] {
				seen[r.Name] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// Expected implements Program: the sum over phases.
func (c *Concat) Expected() Expected {
	var e Expected
	for _, p := range c.Programs {
		pe := p.Expected()
		e.Instrs += pe.Instrs
		e.FPAdd += pe.FPAdd
		e.FPMul += pe.FPMul
		e.FPDiv += pe.FPDiv
		e.FMA += pe.FMA
		e.FPRound += pe.FPRound
		e.Loads += pe.Loads
		e.Stores += pe.Stores
		e.Branches += pe.Branches
	}
	return e
}

// Reset implements Program.
func (c *Concat) Reset() {
	c.cur = 0
	for _, p := range c.Programs {
		p.Reset()
	}
}

// Next implements hwsim.Stream: it lends what the current phase lends.
func (c *Concat) Next() []hwsim.Instr {
	for c.cur < len(c.Programs) {
		if b := c.Programs[c.cur].Next(); len(b) > 0 {
			return b
		}
		c.cur++
	}
	return nil
}
