package experiments

import (
	"fmt"

	"repro/papi"
	"repro/workload"
)

// E3Row is one (platform, granularity) overhead measurement.
type E3Row struct {
	Platform    string
	ReadCost    uint64 // the substrate's per-read cycle cost
	Granularity int    // instructions between counter reads
	Overhead    float64
}

// E3Result reproduces §4's observation that "the overhead of library
// calls to read the hardware counters can be excessive if the routines
// are called frequently — for example, on entry and exit of a small
// subroutine or basic block within a tight loop".
type E3Result struct {
	Rows []E3Row
}

// E3 sweeps instrumentation granularity across three substrates with
// very different read costs (register access vs vendor library vs
// kernel syscall).
func E3() (*E3Result, error) {
	res := &E3Result{}
	const totalIters = 40_000
	grains := []int{48, 240, 1200, 6000, 30_000}
	platforms := []string{papi.PlatformCrayT3E, papi.PlatformAIXPower3, papi.PlatformLinuxX86}
	for _, platform := range platforms {
		// Baseline: run without any reads.
		base, err := e3Run(platform, totalIters, 0)
		if err != nil {
			return nil, err
		}
		for _, g := range grains {
			mon, err := e3Run(platform, totalIters, g)
			if err != nil {
				return nil, err
			}
			sys, _ := papi.Init(papi.Options{Platform: platform})
			res.Rows = append(res.Rows, E3Row{
				Platform:    platform,
				ReadCost:    sys.Arch().ReadCost,
				Granularity: g,
				Overhead:    float64(mon-base) / float64(base),
			})
		}
	}
	return res, nil
}

// e3Run executes the triad, reading the counters every `grain`
// instructions (0 = never), and returns the cycles consumed.
func e3Run(platform string, iters, grain int) (uint64, error) {
	sys, err := papi.Init(papi.Options{Platform: platform})
	if err != nil {
		return 0, err
	}
	th := sys.Main()
	es := th.NewEventSet()
	if err := es.AddAll(papi.FP_INS, papi.TOT_CYC); err != nil {
		return 0, err
	}
	prog := workload.Triad(workload.TriadConfig{N: 4096, Reps: (iters + 4095) / 4096})
	start := th.CPU().Cycles()
	if err := es.Start(); err != nil {
		return 0, err
	}
	vals := make([]int64, 2)
	if grain <= 0 {
		th.Run(prog)
	} else {
		// Cut the lent batches into grain-sized pieces; left carries a
		// piece across the end of a batch.
		left := grain
		for b := prog.Next(); len(b) > 0; b = prog.Next() {
			for len(b) > 0 {
				n := min(left, len(b))
				th.Exec(b[:n])
				b, left = b[n:], left-n
				if left == 0 {
					if err := es.Read(vals); err != nil {
						return 0, err
					}
					left = grain
				}
			}
		}
		if left < grain { // the last, short piece is read too
			if err := es.Read(vals); err != nil {
				return 0, err
			}
		}
	}
	if err := es.Stop(vals); err != nil {
		return 0, err
	}
	return th.CPU().Cycles() - start, nil
}

func (r *E3Result) table() *Table {
	t := &Table{
		ID:      "E3",
		Title:   "per-read overhead vs instrumentation granularity",
		Claim:   "frequent counter reads (small routines, tight loops) impose excessive overhead (§4)",
		Columns: []string{"platform", "read cost (cyc)", "instrs/read", "overhead"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Platform, u64(row.ReadCost), fmt.Sprintf("%d", row.Granularity), pct(row.Overhead))
	}
	t.Notes = append(t.Notes, "the Cray T3E's register-level access is why its fine-grained overhead stays small")
	return t
}
