package workload

import (
	"testing"

	"repro/internal/hwsim"
)

// runTruth executes a program on a T3E core (in-order, exact) and
// returns the CPU's ground-truth signal totals.
func runTruth(t *testing.T, p Program) *hwsim.CPU {
	t.Helper()
	a, ok := hwsim.ArchByPlatform(hwsim.PlatformCrayT3E)
	if !ok {
		t.Fatal("no t3e arch")
	}
	cpu := hwsim.MustNewCPU(a, 99)
	cpu.Run(p)
	return cpu
}

func checkExpected(t *testing.T, p Program) {
	t.Helper()
	cpu := runTruth(t, p)
	e := p.Expected()
	checks := []struct {
		name string
		sig  hwsim.Signal
		want uint64
	}{
		{"instrs", hwsim.SigInstrs, e.Instrs},
		{"fpadd", hwsim.SigFPAdd, e.FPAdd},
		{"fpmul", hwsim.SigFPMul, e.FPMul},
		{"fpdiv", hwsim.SigFPDiv, e.FPDiv},
		{"fma", hwsim.SigFMA, e.FMA},
		{"fpround", hwsim.SigFPRound, e.FPRound},
		{"loads", hwsim.SigLoads, e.Loads},
		{"stores", hwsim.SigStores, e.Stores},
		{"branches", hwsim.SigBranch, e.Branches},
	}
	for _, c := range checks {
		if got := cpu.Truth(c.sig); got != c.want {
			t.Errorf("%s: %s = %d, expected %d", p.Name(), c.name, got, c.want)
		}
	}
}

func TestMatMulExpectedCounts(t *testing.T) {
	checkExpected(t, MatMul(MatMulConfig{N: 12}))
	checkExpected(t, MatMul(MatMulConfig{N: 8, UseFMA: true}))
}

func TestTriadExpectedCounts(t *testing.T) {
	checkExpected(t, Triad(TriadConfig{N: 500, Reps: 3}))
}

func TestChaseExpectedCounts(t *testing.T) {
	checkExpected(t, PointerChase(ChaseConfig{Nodes: 256, Steps: 1000}))
}

func TestStencilExpectedCounts(t *testing.T) {
	checkExpected(t, Stencil(StencilConfig{N: 20, Sweeps: 2}))
}

func TestBranchyExpectedCounts(t *testing.T) {
	checkExpected(t, Branchy(BranchyConfig{N: 2000}))
}

func TestMixedPrecisionExpectedCounts(t *testing.T) {
	checkExpected(t, MixedPrecision(MixedPrecisionConfig{N: 3000}))
}

func TestConcatExpectedCounts(t *testing.T) {
	c := NewConcat("phased",
		MatMul(MatMulConfig{N: 8}),
		Triad(TriadConfig{N: 200}),
	)
	checkExpected(t, c)
	if c.Name() != "phased" {
		t.Error("concat name")
	}
	if len(c.Regions()) != 2 {
		t.Errorf("concat regions = %v", c.Regions())
	}
}

func TestResetReplaysIdentically(t *testing.T) {
	progs := []Program{
		MatMul(MatMulConfig{N: 10}),
		PointerChase(ChaseConfig{Nodes: 128, Steps: 500}),
		Branchy(BranchyConfig{N: 500}),
		NewConcat("c", Triad(TriadConfig{N: 100}), Stencil(StencilConfig{N: 10})),
	}
	for _, p := range progs {
		collect := func() []hwsim.Instr {
			var out []hwsim.Instr
			for b := p.Next(); len(b) > 0; b = p.Next() {
				out = append(out, b...) // a copy: the lent slice is the stream's
			}
			return out
		}
		first := collect()
		p.Reset()
		second := collect()
		if len(first) != len(second) {
			t.Fatalf("%s: replay length %d vs %d", p.Name(), len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: replay diverges at %d: %+v vs %+v", p.Name(), i, first[i], second[i])
			}
		}
		p.Reset()
	}
}

func TestRegionsCoverInstructions(t *testing.T) {
	// Every generated instruction address must fall inside a declared
	// region — profiling tools depend on this.
	progs := []Program{
		MatMul(MatMulConfig{N: 6}),
		Triad(TriadConfig{N: 50}),
		PointerChase(ChaseConfig{Nodes: 64, Steps: 100}),
		Stencil(StencilConfig{N: 8}),
		Branchy(BranchyConfig{N: 100}),
		MixedPrecision(MixedPrecisionConfig{N: 100}),
	}
	for _, p := range progs {
		regions := p.Regions()
		for b := p.Next(); len(b) > 0; b = p.Next() {
			for _, in := range b {
				inside := false
				for _, r := range regions {
					if r.Contains(in.Addr) {
						inside = true
						break
					}
				}
				if !inside {
					t.Fatalf("%s: instruction at %#x outside all regions %v", p.Name(), in.Addr, regions)
				}
			}
		}
	}
}

func TestChaseHitsManyDistinctLines(t *testing.T) {
	p := PointerChase(ChaseConfig{Nodes: 512, Steps: 512})
	seen := map[uint64]bool{}
	for b := p.Next(); len(b) > 0; b = p.Next() {
		for _, in := range b {
			if in.Op == hwsim.OpLoad {
				seen[in.Mem] = true
			}
		}
	}
	if len(seen) < 500 {
		t.Errorf("chase touched only %d distinct lines, want ~512", len(seen))
	}
}

func TestBranchyMispredicts(t *testing.T) {
	p := Branchy(BranchyConfig{N: 20_000})
	cpu := runTruth(t, p)
	miss := cpu.Truth(hwsim.SigBranchMiss)
	br := cpu.Truth(hwsim.SigBranch)
	// Half the branches are coin flips: overall mispredict rate must be
	// substantial (> 10%) unlike a predictable loop.
	if float64(miss)/float64(br) < 0.10 {
		t.Errorf("mispredict rate %.3f too low for data-dependent branches", float64(miss)/float64(br))
	}
}

func TestDefaultsApplied(t *testing.T) {
	if MatMul(MatMulConfig{}).Name() != "matmul(n=32,fma=false)" {
		t.Error("matmul default")
	}
	if PointerChase(ChaseConfig{}).Expected().Loads == 0 {
		t.Error("chase default")
	}
	if Triad(TriadConfig{}).Expected().FPMul == 0 {
		t.Error("triad default")
	}
	if Stencil(StencilConfig{}).Expected().FPAdd == 0 {
		t.Error("stencil default")
	}
	if Branchy(BranchyConfig{}).Expected().Branches == 0 {
		t.Error("branchy default")
	}
	if MixedPrecision(MixedPrecisionConfig{}).Expected().FPRound == 0 {
		t.Error("mixedprec default")
	}
}

// armAll programs as many native events as the register file takes,
// first fit in table order, and starts the counters.
func armAll(t *testing.T, c *hwsim.CPU) {
	t.Helper()
	a := c.Arch()
	assign := map[int]hwsim.NativeEvent{}
	for _, ev := range a.Events {
		for r := 0; r < a.NumCounters; r++ {
			if _, used := assign[r]; !used && ev.CounterMask&(1<<uint(r)) != 0 {
				assign[r] = ev
				break
			}
		}
	}
	if err := c.PMU().Program(assign); err != nil {
		t.Fatal(err)
	}
	c.PMU().Start()
}

// coreState is everything a run leaves observable on a core.
func coreState(c *hwsim.CPU) []uint64 {
	st := []uint64{c.Cycles(), c.RealCycles(), c.Retired()}
	for s := hwsim.Signal(0); s < hwsim.NumSignals; s++ {
		st = append(st, c.Truth(s))
	}
	regs := make([]uint64, c.Arch().NumCounters)
	c.PMU().ReadAll(regs)
	return append(st, regs...)
}

// TestReplayEqualsFreshProgram is the exactness rule for replay: a core
// that runs one program instance three times — lent again from its
// queue when it fit a batch, regenerated when it did not — ends every
// run in the state of a core that ran a freshly built program each
// time. chase is in the table on purpose: its generator carries the
// walk's position between iterations, which replay must not depend on
// regenerating.
func TestReplayEqualsFreshProgram(t *testing.T) {
	type maker func() Program
	byName := func(name string, n int) maker {
		return func() Program {
			p, err := ByName(name, n)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	// Per workload, a size that fits one batch and one that does not.
	long := map[string]int{"matmul": 16, "triad": 128, "chase": 300, "stencil": 16,
		"branchy": 40, "mixedprec": 32, "lu": 20, "gups": 40, "dot": 32}
	var fit, stream []maker
	for _, name := range Names() {
		fit = append(fit, byName(name, 8))
		stream = append(stream, byName(name, long[name]))
	}
	fit = append(fit,
		func() Program { return BlockedMatMul(BlockedMatMulConfig{N: 8, Block: 4}) },
		func() Program { return HotColdLoop(HotColdConfig{Iters: 100}) },
		func() Program { return NewConcat("fit", byName("dot", 8)(), byName("chase", 8)()) })
	stream = append(stream,
		func() Program { return BlockedMatMul(BlockedMatMulConfig{N: 16, Block: 8}) },
		func() Program { return HotColdLoop(HotColdConfig{Iters: 400}) },
		// one phase replays, the other regenerates
		func() Program { return NewConcat("mixed", byName("dot", 8)(), byName("chase", 300)()) })

	check := func(a *hwsim.Arch, mk maker, fits bool) {
		t.Helper()
		fresh, replay := hwsim.MustNewCPU(a, 17), hwsim.MustNewCPU(a, 17)
		armAll(t, fresh)
		armAll(t, replay)
		p := mk()
		if c, ok := p.(*Concat); !ok {
			if got := p.Expected().Instrs <= batchInstrs; got != fits {
				t.Fatalf("%s: fits one batch = %v, the table says %v", p.Name(), got, fits)
			}
		} else if got := c.Programs[1].Expected().Instrs <= batchInstrs; got != fits {
			t.Fatalf("%s: second phase fits one batch = %v, the table says %v", p.Name(), got, fits)
		}
		for run := 0; run < 3; run++ {
			fresh.Run(mk())
			p.Reset()
			replay.Run(p)
			want, got := coreState(fresh), coreState(replay)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s on %s, run %d: state[%d] = %d replayed, %d fresh", p.Name(), a.Platform, run, i, got[i], want[i])
				}
			}
		}
		if ip, ok := p.(*iterProgram); ok && ip.whole != fits {
			t.Errorf("%s: kept whole = %v, want %v", p.Name(), ip.whole, fits)
		}
	}
	t3e, _ := hwsim.ArchByPlatform(hwsim.PlatformCrayT3E)
	for i := range fit {
		for _, a := range hwsim.Architectures() {
			check(a, fit[i], true)
		}
		check(t3e, stream[i], false)
	}
}
