// Package repro's root benchmark harness: one testing.B benchmark per
// paper table/figure (the E*/F2 experiments — see EXPERIMENTS.md for
// the index) plus micro-benchmarks of the library's hot paths. Key
// shape numbers are emitted via b.ReportMetric so `go test -bench .`
// regenerates the evaluation's headline figures.
package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/papi"
	"repro/workload"
)

// benchExperiment runs one experiment per iteration and reports the
// metrics the paper's claim hangs on.
func benchExperiment(b *testing.B, run func(b *testing.B)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(b)
	}
}

// BenchmarkE1Calibrate regenerates E1 (§4): sampling-substrate counts
// converge at 1–2% overhead vs up to ~30% for direct counting.
func BenchmarkE1Calibrate(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E1()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.N == 96 {
				if row.Mode == "hw-sampling" {
					b.ReportMetric(row.Overhead*100, "sampling-overhead-%")
					b.ReportMetric(row.RelErr*100, "sampling-err-%")
				} else {
					b.ReportMetric(row.Overhead*100, "direct-overhead-%")
				}
			}
		}
	})
}

// BenchmarkE2Multiplex regenerates E2 (§2): multiplex estimate error
// versus runtime.
func BenchmarkE2Multiplex(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E2()
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		b.ReportMetric(float64(first.Unmeasured), "short-run-unmeasured")
		b.ReportMetric(last.MeanRelErr*100, "long-run-err-%")
	})
}

// BenchmarkE3ReadOverhead regenerates E3 (§4): per-read overhead vs
// instrumentation granularity.
func BenchmarkE3ReadOverhead(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E3()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Granularity == 48 {
				switch row.Platform {
				case papi.PlatformLinuxX86:
					b.ReportMetric(row.Overhead*100, "x86-fine-overhead-%")
				case papi.PlatformCrayT3E:
					b.ReportMetric(row.Overhead*100, "t3e-fine-overhead-%")
				}
			}
		}
	})
}

// BenchmarkE4Allocation regenerates E4 (§5): optimal matching vs
// first-fit counter allocation.
func BenchmarkE4Allocation(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E4()
		if err != nil {
			b.Fatal(err)
		}
		recovered := 0
		for _, row := range r.Rows {
			recovered += row.Recovered
		}
		b.ReportMetric(float64(recovered), "sets-recovered-by-matching")
	})
}

// BenchmarkE5Attribution regenerates E5 (§4): skidded interrupt PCs vs
// exact hardware sampling.
func BenchmarkE5Attribution(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E5()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			switch row.Platform {
			case papi.PlatformLinuxX86:
				b.ReportMetric(row.PctCorrect*100, "x86-correct-%")
			case papi.PlatformTru64Alpha:
				b.ReportMetric(row.PctCorrect*100, "alpha-correct-%")
			}
		}
	})
}

// BenchmarkE6FPDiscrepancy regenerates E6 (§4): the POWER3 rounding-
// instruction over-count.
func BenchmarkE6FPDiscrepancy(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E6()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Platform == papi.PlatformAIXPower3 {
				b.ReportMetric(row.OverPct*100, "power3-overcount-%")
			}
		}
	})
}

// BenchmarkE7FlopsNormalization regenerates E7 (§4): FMA counted as
// two operations by PAPI_flops.
func BenchmarkE7FlopsNormalization(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].Ratio, "fpops-per-fma")
	})
}

// BenchmarkE8Timers regenerates E8 (§3): portable timer resolution,
// cost and the real/virtual split.
func BenchmarkE8Timers(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].RealOverVirt, "real-over-virt")
	})
}

// BenchmarkE9OverlapAblation regenerates E9 (§5): the cost of v2
// overlapping EventSets.
func BenchmarkE9OverlapAblation(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E9()
		if err != nil {
			b.Fatal(err)
		}
		v3, v2 := r.Rows[0], r.Rows[1]
		b.ReportMetric(float64(v2.MgmtCycles)/float64(v3.MgmtCycles), "v2-over-v3-cycles")
		b.ReportMetric(float64(v2.FootprintBytes), "v2-footprint-B")
		b.ReportMetric(float64(v3.FootprintBytes), "v3-footprint-B")
	})
}

// BenchmarkE10Cost regenerates E10 (§2): papi_cost per substrate.
func BenchmarkE10Cost(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E10()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			switch row.Platform {
			case papi.PlatformCrayT3E:
				b.ReportMetric(float64(row.Read), "t3e-read-cyc")
			case papi.PlatformLinuxX86:
				b.ReportMetric(float64(row.Read), "x86-read-cyc")
			}
		}
	})
}

// BenchmarkE11Memory regenerates E11 (§5): the memory-utilization
// extensions.
func BenchmarkE11Memory(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Proc.SwapOuts), "swap-outs")
	})
}

// BenchmarkF2Perfometer regenerates Figure 2: the real-time FLOP-rate
// trace with its memory-phase dip.
func BenchmarkF2Perfometer(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.F2()
		if err != nil {
			b.Fatal(err)
		}
		rates := r.Front.SectionMeanRate()
		if rates["gather"] > 0 {
			b.ReportMetric(rates["compute_a"]/rates["gather"], "compute-over-gather-rate")
		}
	})
}

// BenchmarkE12Correlation regenerates E12 (§3): multi-metric profiles
// exposing per-region correlations.
func BenchmarkE12Correlation(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.E12()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Region == "mem_kernel" {
				b.ReportMetric(row.MissRate, "mem-kernel-miss-per-us")
			}
			if row.Region == "fp_kernel" {
				b.ReportMetric(row.FPRate, "fp-kernel-flop-per-us")
			}
		}
	})
}

// BenchmarkA1MultiplexInterval regenerates the multiplex slice-length
// ablation.
func BenchmarkA1MultiplexInterval(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.A1()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.IntervalCycles == 400_000 {
				b.ReportMetric(row.Overhead*100, "default-ish-overhead-%")
			}
		}
	})
}

// BenchmarkA2SamplingPeriod regenerates the sampling-period ablation.
func BenchmarkA2SamplingPeriod(b *testing.B) {
	benchExperiment(b, func(b *testing.B) {
		r, err := experiments.A2()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Period == 512 {
				b.ReportMetric(row.Overhead*100, "default-overhead-%")
				b.ReportMetric(row.RelErr*100, "default-err-%")
			}
		}
	})
}

// --- Library micro-benchmarks -------------------------------------

// BenchmarkSimulatedExecution measures raw simulator throughput in
// retired instructions per second of host time.
func BenchmarkSimulatedExecution(b *testing.B) {
	sys := papi.MustInit(papi.Options{Platform: papi.PlatformLinuxX86})
	th := sys.Main()
	prog := workload.Triad(workload.TriadConfig{N: 4096, Reps: 4})
	perRun := prog.Expected().Instrs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Reset()
		th.Run(prog)
	}
	b.ReportMetric(float64(perRun*uint64(b.N))/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatedReplay prices the other way a program reaches the
// core: dot n=8 fits one batch, so after the first run Reset+Run lends
// the same 320 instructions again, ungenerated and frozen
// (SimulatedExecution's triad is longer than a batch and regenerates
// every run). The core's memo holds that very slice, so every run here
// replays it by identity: no probe and no compare, only the memoized
// counts added. It is a live papid session's tick without the server:
// aix-power3, four events counting, 0 B/op.
func BenchmarkSimulatedReplay(b *testing.B) {
	sys := papi.MustInit(papi.Options{Platform: papi.PlatformAIXPower3})
	th := sys.Main()
	es := th.NewEventSet()
	if err := es.AddAll(papi.TOT_INS, papi.TOT_CYC, papi.L2_TCM, papi.L2_TCA); err != nil {
		b.Fatal(err)
	}
	if err := es.Start(); err != nil {
		b.Fatal(err)
	}
	prog, err := workload.ByName("dot", 8)
	if err != nil {
		b.Fatal(err)
	}
	perRun := prog.Expected().Instrs
	th.Run(prog) // generates the queue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Reset()
		th.Run(prog)
	}
	b.ReportMetric(float64(perRun*uint64(b.N))/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatedCounting is SimulatedExecution's triad with
// SimulatedReplay's event set counting on aix-power3: every slice takes
// the quiet path, and no slice replays: the triad regenerates its
// queue, so it never lends a frozen slice, and its L1D misses keep the
// core from a fixed point anyway. It prices the quiet loop with no memo
// to keep.
func BenchmarkSimulatedCounting(b *testing.B) {
	sys := papi.MustInit(papi.Options{Platform: papi.PlatformAIXPower3})
	th := sys.Main()
	es := th.NewEventSet()
	if err := es.AddAll(papi.TOT_INS, papi.TOT_CYC, papi.L2_TCM, papi.L2_TCA); err != nil {
		b.Fatal(err)
	}
	if err := es.Start(); err != nil {
		b.Fatal(err)
	}
	prog := workload.Triad(workload.TriadConfig{N: 4096, Reps: 4})
	perRun := prog.Expected().Instrs
	th.Run(prog) // generates the queue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Reset()
		th.Run(prog)
	}
	b.ReportMetric(float64(perRun*uint64(b.N))/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkEventSetReadHostCost measures the host-side (Go) cost of a
// counter read through the full stack.
func BenchmarkEventSetReadHostCost(b *testing.B) {
	sys := papi.MustInit(papi.Options{Platform: papi.PlatformCrayT3E})
	th := sys.Main()
	es := th.NewEventSet()
	if err := es.AddAll(papi.FP_INS, papi.TOT_CYC); err != nil {
		b.Fatal(err)
	}
	if err := es.Start(); err != nil {
		b.Fatal(err)
	}
	vals := make([]int64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := es.Read(vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocationMatching measures the Hopcroft–Karp allocator on
// POWER3-sized problems.
func BenchmarkAllocationMatching(b *testing.B) {
	sys := papi.MustInit(papi.Options{Platform: papi.PlatformAIXPower3})
	th := sys.Main()
	es := th.NewEventSet()
	evs := []papi.Event{papi.TOT_CYC, papi.TOT_INS, papi.FP_INS, papi.FMA_INS,
		papi.LD_INS, papi.SR_INS, papi.BR_INS, papi.L1_DCM}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range evs {
			if err := es.Add(ev); err != nil {
				b.Fatal(err)
			}
		}
		for _, ev := range evs {
			if err := es.Remove(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOverflowDispatch measures end-to-end overflow interrupt
// delivery through the simulated PMU and core dispatch.
func BenchmarkOverflowDispatch(b *testing.B) {
	sys := papi.MustInit(papi.Options{Platform: papi.PlatformCrayT3E})
	th := sys.Main()
	es := th.NewEventSet()
	if err := es.Add(papi.FP_INS); err != nil {
		b.Fatal(err)
	}
	fires := 0
	if err := es.SetOverflow(papi.FP_INS, 64, func(*papi.EventSet, uint64, papi.Event) {
		fires++
	}); err != nil {
		b.Fatal(err)
	}
	if err := es.Start(); err != nil {
		b.Fatal(err)
	}
	prog := workload.MatMul(workload.MatMulConfig{N: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Reset()
		th.Run(prog)
	}
	b.StopTimer()
	if fires == 0 {
		b.Fatal("no overflows delivered")
	}
}
