package workload

import (
	"testing"

	"repro/internal/hwsim"
)

func TestLUExpectedCounts(t *testing.T) {
	checkExpected(t, LU(LUConfig{N: 12}))
	checkExpected(t, LU(LUConfig{N: 9, UseFMA: true}))
}

func TestLUDivideCount(t *testing.T) {
	n := 10
	p := LU(LUConfig{N: n})
	want := uint64(n * (n - 1) / 2)
	if got := p.Expected().FPDiv; got != want {
		t.Errorf("LU divides = %d, want %d", got, want)
	}
}

func TestGUPSExpectedCounts(t *testing.T) {
	checkExpected(t, GUPS(GUPSConfig{TableWords: 1 << 10, Updates: 5000}))
}

func TestGUPSRoundsTableToPowerOfTwo(t *testing.T) {
	p := GUPS(GUPSConfig{TableWords: 1000, Updates: 10})
	if p.Name() != "gups(words=1024,updates=10)" {
		t.Errorf("name = %s", p.Name())
	}
}

func TestGUPSMissesHard(t *testing.T) {
	// A table far beyond cache: most updates miss L1.
	p := GUPS(GUPSConfig{TableWords: 1 << 18, Updates: 50_000}) // 2 MiB table
	cpu := runTruth(t, p)
	accesses := cpu.Truth(hwsim.SigL1DAccess)
	misses := cpu.Truth(hwsim.SigL1DMiss)
	// Each update is a load (miss) followed by a store to the same
	// just-loaded line (hit): the asymptotic miss rate is 1/2.
	if rate := float64(misses) / float64(accesses); rate < 0.45 {
		t.Errorf("GUPS miss rate %.2f, want ~0.5", rate)
	}
}

func TestDotExpectedCounts(t *testing.T) {
	checkExpected(t, Dot(DotConfig{N: 4000}))
	checkExpected(t, Dot(DotConfig{N: 4000, UseFMA: true}))
}

func TestExtraReplayAndRegions(t *testing.T) {
	progs := []Program{
		LU(LUConfig{N: 8}),
		GUPS(GUPSConfig{TableWords: 256, Updates: 300}),
		Dot(DotConfig{N: 200, UseFMA: true}),
	}
	for _, p := range progs {
		var first, second []hwsim.Instr
		for b := p.Next(); len(b) > 0; b = p.Next() {
			first = append(first, b...)
		}
		p.Reset()
		for b := p.Next(); len(b) > 0; b = p.Next() {
			second = append(second, b...)
		}
		if len(first) != len(second) {
			t.Fatalf("%s: replay length mismatch", p.Name())
		}
		regions := p.Regions()
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: replay diverges at %d", p.Name(), i)
			}
			inside := false
			for _, r := range regions {
				if r.Contains(first[i].Addr) {
					inside = true
				}
			}
			if !inside {
				t.Fatalf("%s: instr at %#x outside regions", p.Name(), first[i].Addr)
			}
		}
	}
}

func TestExtraDefaults(t *testing.T) {
	if LU(LUConfig{}).Expected().FPDiv == 0 {
		t.Error("LU default")
	}
	if GUPS(GUPSConfig{}).Expected().Stores == 0 {
		t.Error("GUPS default")
	}
	if Dot(DotConfig{}).Expected().FPMul == 0 {
		t.Error("Dot default")
	}
}

func TestBlockedMatMulExpectedCounts(t *testing.T) {
	checkExpected(t, BlockedMatMul(BlockedMatMulConfig{N: 16, Block: 8}))
	checkExpected(t, BlockedMatMul(BlockedMatMulConfig{N: 12, Block: 4, UseFMA: true}))
}

func TestBlockedMatMulSameFLOPsAsNaive(t *testing.T) {
	naive, blocked := BlockedVsNaive(32, 8, false)
	if naive.Expected().FLOPs() != blocked.Expected().FLOPs() {
		t.Errorf("FLOPs differ: naive %d, blocked %d",
			naive.Expected().FLOPs(), blocked.Expected().FLOPs())
	}
	if naive.Expected().Loads != blocked.Expected().Loads {
		t.Errorf("loads differ: naive %d, blocked %d",
			naive.Expected().Loads, blocked.Expected().Loads)
	}
}

func TestBlockedMatMulReducesMisses(t *testing.T) {
	// The point of the transformation: on a machine whose L1 cannot
	// hold the full matrices, the blocked version misses far less.
	run := func(p Program) (misses, cycles uint64) {
		a, _ := hwsim.ArchByPlatform(hwsim.PlatformLinuxX86) // 16K L1
		cpu := hwsim.MustNewCPU(a, 31)
		cpu.Run(p)
		return cpu.Truth(hwsim.SigL1DMiss), cpu.Cycles()
	}
	naive, blocked := BlockedVsNaive(96, 16, false) // 3×72K matrices >> 16K L1
	nm, nc := run(naive)
	bm, bc := run(blocked)
	if bm*2 > nm {
		t.Errorf("blocked misses %d not well below naive %d", bm, nm)
	}
	if bc >= nc {
		t.Errorf("blocked cycles %d not below naive %d", bc, nc)
	}
}

func TestBlockedMatMulRoundsUpToTiles(t *testing.T) {
	p := BlockedMatMul(BlockedMatMulConfig{N: 50, Block: 16})
	if p.Name() != "blockedmatmul(n=64,b=16,fma=false)" {
		t.Errorf("name = %s", p.Name())
	}
}
