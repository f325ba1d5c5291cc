package hwsim

import "testing"

// fpLoop builds a simple straight-line kernel: nFP fp-adds, nLd loads
// walking an array, one backward branch; repeated iters times.
func fpLoop(iters, nFP, nLd int) []Instr {
	var out []Instr
	addr := uint64(0x400000)
	base := uint64(0x10000000)
	for it := 0; it < iters; it++ {
		pc := addr
		for i := 0; i < nFP; i++ {
			out = append(out, Instr{Op: OpFPAdd, Addr: pc})
			pc += InstrBytes
		}
		for i := 0; i < nLd; i++ {
			out = append(out, Instr{Op: OpLoad, Addr: pc, Mem: base + uint64(it*nLd+i)*8})
			pc += InstrBytes
		}
		out = append(out, Instr{Op: OpBranch, Addr: pc, Taken: it != iters-1})
	}
	return out
}

func TestCPUTruthCounts(t *testing.T) {
	a, _ := ArchByPlatform(PlatformCrayT3E)
	c := MustNewCPU(a, 1)
	const iters, nFP, nLd = 100, 4, 2
	c.Run(&SliceStream{Instrs: fpLoop(iters, nFP, nLd)})
	if got := c.Truth(SigFPAdd); got != iters*nFP {
		t.Errorf("FP adds = %d, want %d", got, iters*nFP)
	}
	if got := c.Truth(SigLoads); got != iters*nLd {
		t.Errorf("loads = %d, want %d", got, iters*nLd)
	}
	if got := c.Truth(SigBranch); got != iters {
		t.Errorf("branches = %d, want %d", got, iters)
	}
	if got := c.Truth(SigInstrs); got != iters*(nFP+nLd+1) {
		t.Errorf("instrs = %d, want %d", got, iters*(nFP+nLd+1))
	}
	if c.Retired() != c.Truth(SigInstrs) {
		t.Errorf("retired %d != instr signal %d", c.Retired(), c.Truth(SigInstrs))
	}
	if c.Cycles() == 0 || c.Cycles() < c.Retired() {
		t.Errorf("cycles %d implausible for %d instrs", c.Cycles(), c.Retired())
	}
}

func TestCPUPMUMatchesTruthWhileRunning(t *testing.T) {
	for _, platform := range Platforms() {
		a, _ := ArchByPlatform(platform)
		c := MustNewCPU(a, 2)
		// Find a native event counting plain instructions.
		var ev *NativeEvent
		for i := range a.Events {
			if a.Events[i].Signals == Mask(SigInstrs) {
				ev = &a.Events[i]
				break
			}
		}
		if ev == nil {
			t.Fatalf("%s: no pure instruction event", platform)
		}
		ctr := 0
		for ev.CounterMask&(1<<uint(ctr)) == 0 {
			ctr++
		}
		if err := c.PMU().Program(map[int]NativeEvent{ctr: *ev}); err != nil {
			t.Fatalf("%s: %v", platform, err)
		}
		before := c.Truth(SigInstrs)
		c.PMU().Start()
		c.Run(&SliceStream{Instrs: fpLoop(50, 3, 1)})
		c.PMU().Stop()
		got, _ := c.PMU().Read(ctr)
		want := c.Truth(SigInstrs) - before
		if got != want {
			t.Errorf("%s: pmu counted %d instrs, truth says %d", platform, got, want)
		}
	}
}

func TestCPUCountsNothingWhileStopped(t *testing.T) {
	a, _ := ArchByPlatform(PlatformLinuxX86)
	c := MustNewCPU(a, 3)
	ins, _ := a.EventByName("INST_RETIRED")
	if err := c.PMU().Program(map[int]NativeEvent{0: *ins}); err != nil {
		t.Fatal(err)
	}
	c.Run(&SliceStream{Instrs: fpLoop(10, 2, 0)})
	v, _ := c.PMU().Read(0)
	if v != 0 {
		t.Errorf("counted %d while stopped", v)
	}
}

func TestCPUOverflowExactOnInOrder(t *testing.T) {
	// Cray T3E is in-order with zero skid: the reported PC must always
	// be the address of an instruction that fires the event.
	a, _ := ArchByPlatform(PlatformCrayT3E)
	c := MustNewCPU(a, 4)
	fp, _ := a.EventByName("FP_INST")
	if err := c.PMU().Program(map[int]NativeEvent{1: *fp}); err != nil {
		t.Fatal(err)
	}
	instrs := fpLoop(200, 4, 2)
	fpAddrs := map[uint64]bool{}
	for _, in := range instrs {
		if in.Op == OpFPAdd {
			fpAddrs[in.Addr] = true
		}
	}
	var wrong int
	var fires int
	c.PMU().SetHandler(func(pc uint64, reg int) {
		fires++
		if !fpAddrs[pc] {
			wrong++
		}
	})
	c.PMU().SetOverflow(1, 16)
	c.PMU().Start()
	c.Run(&SliceStream{Instrs: instrs})
	if fires != 200*4/16 {
		t.Errorf("overflow fired %d times, want %d", fires, 200*4/16)
	}
	if wrong != 0 {
		t.Errorf("%d/%d overflow PCs did not point at FP instructions on a zero-skid core", wrong, fires)
	}
}

func TestCPUOverflowSkidsOnOOO(t *testing.T) {
	// linux-x86 skids 4..12 instructions: most reported PCs should NOT
	// be the FP instructions themselves.
	a, _ := ArchByPlatform(PlatformLinuxX86)
	c := MustNewCPU(a, 5)
	fl, _ := a.EventByName("FLOPS")
	if err := c.PMU().Program(map[int]NativeEvent{0: *fl}); err != nil {
		t.Fatal(err)
	}
	instrs := fpLoop(500, 2, 6) // FP instrs are a minority
	fpAddrs := map[uint64]bool{}
	for _, in := range instrs {
		if in.Op == OpFPAdd {
			fpAddrs[in.Addr] = true
		}
	}
	var onFP, fires int
	c.PMU().SetHandler(func(pc uint64, reg int) {
		fires++
		if fpAddrs[pc] {
			onFP++
		}
	})
	c.PMU().SetOverflow(0, 10)
	c.PMU().Start()
	c.Run(&SliceStream{Instrs: instrs})
	if fires == 0 {
		t.Fatal("no overflows fired")
	}
	if onFP*2 > fires {
		t.Errorf("%d/%d skidded interrupts still landed on FP instructions; skid model broken", onFP, fires)
	}
}

func TestCPUChargePerturbsRunningCounters(t *testing.T) {
	a, _ := ArchByPlatform(PlatformLinuxX86)
	c := MustNewCPU(a, 6)
	ins, _ := a.EventByName("INST_RETIRED")
	cyc, _ := a.EventByName("CPU_CLK_UNHALTED")
	if err := c.PMU().Program(map[int]NativeEvent{0: *ins, 1: *cyc}); err != nil {
		t.Fatal(err)
	}
	c.PMU().Start()
	c.Charge(1000, 300)
	i, _ := c.PMU().Read(0)
	cy, _ := c.PMU().Read(1)
	if i != 300 || cy != 1000 {
		t.Errorf("charge counted %d instrs / %d cycles, want 300/1000", i, cy)
	}
}

func TestCPUKernelOverflowWaitsForNextInstruction(t *testing.T) {
	// A threshold crossed by charged (kernel-mode) cycles cannot interrupt
	// the charge: it is delivered as the next instruction retires, on a
	// skidding core too, and never dropped.
	for _, platform := range []string{PlatformCrayT3E, PlatformLinuxX86} {
		a, _ := ArchByPlatform(platform)
		c := MustNewCPU(a, 6)
		var cyc *NativeEvent
		for i := range a.Events {
			if a.Events[i].Signals == Mask(SigCycles) {
				cyc = &a.Events[i]
				break
			}
		}
		ctr := 0
		for cyc.CounterMask&(1<<uint(ctr)) == 0 {
			ctr++
		}
		if err := c.PMU().Program(map[int]NativeEvent{ctr: *cyc}); err != nil {
			t.Fatal(err)
		}
		var pcs []uint64
		c.PMU().SetHandler(func(pc uint64, reg int) {
			if reg != ctr {
				t.Errorf("%s: overflow on register %d, want %d", platform, reg, ctr)
			}
			pcs = append(pcs, pc)
		})
		c.PMU().SetOverflow(ctr, 100_000) // far above the interrupt's own cost
		c.PMU().Start()
		c.Charge(100_500, 0)
		if len(pcs) != 0 {
			t.Fatalf("%s: overflow delivered inside the charge", platform)
		}
		c.Run(&SliceStream{Instrs: []Instr{{Op: OpNop, Addr: 0x400000}, {Op: OpNop, Addr: 0x400004}}})
		if len(pcs) != 1 || pcs[0] != 0x400000 {
			t.Errorf("%s: overflow PCs %#x, want one at the first instruction after the charge", platform, pcs)
		}
	}
}

func TestCPUTimerFires(t *testing.T) {
	a, _ := ArchByPlatform(PlatformCrayT3E)
	c := MustNewCPU(a, 7)
	var ticks int
	c.SetTimer(1000, func() { ticks++ })
	c.Charge(10_500, 0)
	if ticks != 10 {
		t.Errorf("timer fired %d times over 10500 cycles at interval 1000, want 10", ticks)
	}
	c.SetTimer(0, nil)
	c.Charge(5000, 0)
	if ticks != 10 {
		t.Error("timer fired after removal")
	}
}

func TestCPUInterferenceStealsRealTime(t *testing.T) {
	a, _ := ArchByPlatform(PlatformLinuxX86)
	c := MustNewCPU(a, 8)
	c.SetInterference(1000, 250) // steal 250 cycles every 1000
	c.Charge(10_000, 0)
	if c.Cycles() != 10_000 {
		t.Errorf("virtual cycles = %d, want 10000", c.Cycles())
	}
	if c.RealCycles() != 10_000+10*250 {
		t.Errorf("real cycles = %d, want %d", c.RealCycles(), 10_000+10*250)
	}
}

func TestCPUSamplingConvergesAndIsExact(t *testing.T) {
	a, _ := ArchByPlatform(PlatformTru64Alpha)
	c := MustNewCPU(a, 9)
	var samples []Sample
	if err := c.ConfigureSampling(64, func(batch []Sample) {
		samples = append(samples, batch...)
	}); err != nil {
		t.Fatal(err)
	}
	instrs := fpLoop(20_000, 3, 2)
	fpAddrs := map[uint64]bool{}
	for _, in := range instrs {
		if in.Op == OpFPAdd {
			fpAddrs[in.Addr] = true
		}
	}
	c.Run(&SliceStream{Instrs: instrs})
	c.FlushSamples()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	// Exact attribution: every sample flagged FP must sit on an FP PC.
	var fpSamples, wrong int
	for _, s := range samples {
		if s.Signals.Has(SigFPAdd) {
			fpSamples++
			if !fpAddrs[s.PC] {
				wrong++
			}
		}
	}
	if wrong != 0 {
		t.Errorf("%d FP samples with non-FP PC; hardware sampling must be exact", wrong)
	}
	// Estimation: fpSamples * period should approximate true FP count.
	est := float64(fpSamples) * 64
	truth := float64(c.Truth(SigFPAdd))
	if rel := abs(est-truth) / truth; rel > 0.10 {
		t.Errorf("sampled FP estimate %.0f vs truth %.0f (rel err %.2f%%)", est, truth, rel*100)
	}
}

func TestCPUSamplingUnsupportedPlatform(t *testing.T) {
	a, _ := ArchByPlatform(PlatformLinuxX86)
	c := MustNewCPU(a, 10)
	if err := c.ConfigureSampling(64, nil); err == nil {
		t.Error("expected error: linux-x86 has no hardware sampling")
	}
}

func TestCPUDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		a, _ := ArchByPlatform(PlatformLinuxX86)
		c := MustNewCPU(a, 42)
		c.Run(&SliceStream{Instrs: fpLoop(1000, 3, 3)})
		return c.Cycles(), c.Truth(SigL1DMiss)
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", c1, m1, c2, m2)
	}
}

func TestCPUMemoryHierarchySignals(t *testing.T) {
	a, _ := ArchByPlatform(PlatformLinuxX86)
	c := MustNewCPU(a, 11)
	// Stream through 1 MiB: far beyond L1 (16K) and L2 (256K).
	var instrs []Instr
	for i := 0; i < 16384; i++ {
		instrs = append(instrs, Instr{Op: OpLoad, Addr: 0x400000, Mem: 0x2000000 + uint64(i)*64})
	}
	c.Run(&SliceStream{Instrs: instrs})
	if c.Truth(SigL1DMiss) == 0 || c.Truth(SigL2Miss) == 0 || c.Truth(SigTLBDMiss) == 0 {
		t.Errorf("streaming 1MiB produced L1DMiss=%d L2Miss=%d TLBMiss=%d; all should be nonzero",
			c.Truth(SigL1DMiss), c.Truth(SigL2Miss), c.Truth(SigTLBDMiss))
	}
	if c.Truth(SigL1DAccess) != 16384 {
		t.Errorf("L1D accesses = %d, want 16384", c.Truth(SigL1DAccess))
	}
	if c.Truth(SigL1DMiss) > c.Truth(SigL1DAccess) {
		t.Error("misses exceed accesses")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
