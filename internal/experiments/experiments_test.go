package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hwsim"
	"repro/papi"
	"repro/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this tree's experiments")

// The tests assert the *shape* of each experiment against the paper's
// claims: who wins, by roughly what factor, where crossovers fall.

func TestE1Shape(t *testing.T) {
	r, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	var alphaBig, x86Big *E1Row
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.N == 96 {
			if row.Platform == papi.PlatformTru64Alpha {
				alphaBig = row
			} else {
				x86Big = row
			}
		}
		if row.Platform == papi.PlatformLinuxX86 && row.RelErr > 0.001 {
			t.Errorf("direct counting must be exact; N=%d err %.4f", row.N, row.RelErr)
		}
	}
	if alphaBig == nil || x86Big == nil {
		t.Fatal("missing rows")
	}
	// Sampling converges on the long run...
	if alphaBig.RelErr > 0.03 {
		t.Errorf("alpha N=96 rel err %.4f, want < 3%%", alphaBig.RelErr)
	}
	// ...at 1-2(≤4)% overhead, versus >5x more for direct counting
	// with interrupt profiling.
	if alphaBig.Overhead > 0.04 {
		t.Errorf("alpha overhead %.4f, want ~1-2%%", alphaBig.Overhead)
	}
	if x86Big.Overhead < 0.10 {
		t.Errorf("x86 profiling overhead %.4f, want substantial (paper: up to 30%%)", x86Big.Overhead)
	}
	if x86Big.Overhead < 5*alphaBig.Overhead {
		t.Errorf("direct-counting overhead (%.3f) should dwarf sampling overhead (%.3f)",
			x86Big.Overhead, alphaBig.Overhead)
	}
}

func TestE2Shape(t *testing.T) {
	r, err := E2()
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	// The short run is erroneous: unmeasured events or large error.
	if first.Unmeasured == 0 && first.MaxRelErr < 0.30 {
		t.Errorf("short run (N=%d, %.2f rotations) looks fine: unmeasured=%d max err %.3f",
			first.N, first.Rotations, first.Unmeasured, first.MaxRelErr)
	}
	// The long run converges.
	if last.Unmeasured != 0 {
		t.Errorf("long run left %d events unmeasured", last.Unmeasured)
	}
	// Convergence is what the paper claims — the residual comes from
	// bursty events (L2/TLB) whose activity correlates with the slice
	// schedule; it keeps shrinking with runtime.
	if last.MeanRelErr > 0.08 {
		t.Errorf("long run mean err %.4f, want < 8%%", last.MeanRelErr)
	}
	if last.MeanRelErr >= first.MeanRelErr && first.Unmeasured == 0 {
		t.Error("error should shrink with runtime")
	}
}

func TestE3Shape(t *testing.T) {
	r, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	byPlat := map[string][]E3Row{}
	for _, row := range r.Rows {
		byPlat[row.Platform] = append(byPlat[row.Platform], row)
	}
	for plat, rows := range byPlat {
		// Overhead decreases monotonically with granularity.
		for i := 1; i < len(rows); i++ {
			if rows[i].Overhead > rows[i-1].Overhead+0.01 {
				t.Errorf("%s: overhead rose with coarser granularity: %v then %v",
					plat, rows[i-1], rows[i])
			}
		}
	}
	// Fine-grained instrumentation is excessive on syscall substrates…
	if byPlat[papi.PlatformLinuxX86][0].Overhead < 1.0 {
		t.Errorf("x86 at 48 instrs/read: overhead %.2f, want > 100%%",
			byPlat[papi.PlatformLinuxX86][0].Overhead)
	}
	// …but stays moderate with register-level access.
	if byPlat[papi.PlatformCrayT3E][0].Overhead > 0.5 {
		t.Errorf("t3e at 48 instrs/read: overhead %.2f, want modest", byPlat[papi.PlatformCrayT3E][0].Overhead)
	}
}

// TestE3GrainAcrossBatches pins e3Run's carry: cutting the lent
// batches into grain-sized pieces must read the counters at the same
// instructions as slicing the whole materialised program by grain —
// for grains below, at, just around and far above a batch.
func TestE3GrainAcrossBatches(t *testing.T) {
	const iters = 40_000
	reference := func(grain int) uint64 {
		sys, err := papi.Init(papi.Options{Platform: papi.PlatformLinuxX86})
		if err != nil {
			t.Fatal(err)
		}
		th := sys.Main()
		es := th.NewEventSet()
		if err := es.AddAll(papi.FP_INS, papi.TOT_CYC); err != nil {
			t.Fatal(err)
		}
		prog := workload.Triad(workload.TriadConfig{N: 4096, Reps: (iters + 4095) / 4096})
		var all []hwsim.Instr
		for b := prog.Next(); len(b) > 0; b = prog.Next() {
			all = append(all, b...)
		}
		start := th.CPU().Cycles()
		if err := es.Start(); err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, 2)
		for len(all) > 0 {
			n := min(grain, len(all))
			th.Exec(all[:n])
			all = all[n:]
			if err := es.Read(vals); err != nil {
				t.Fatal(err)
			}
		}
		if err := es.Stop(vals); err != nil {
			t.Fatal(err)
		}
		return th.CPU().Cycles() - start
	}
	for _, grain := range []int{48, 1200, 4095, 4096, 4097, 30_000} {
		got, err := e3Run(papi.PlatformLinuxX86, iters, grain)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(grain); got != want {
			t.Errorf("grain %d: e3Run took %d cycles, slicing the whole program %d", grain, got, want)
		}
	}
}

func TestE4Shape(t *testing.T) {
	r, err := E4()
	if err != nil {
		t.Fatal(err)
	}
	recoveredSomewhere := false
	for _, row := range r.Rows {
		if row.OptimalOK < row.GreedyOK {
			t.Errorf("%s: matching mapped fewer sets than first-fit", row.Platform)
		}
		if row.MeanMapOpt < row.MeanMapGreedy {
			t.Errorf("%s: matching mapped fewer events on average", row.Platform)
		}
		if row.Recovered > 0 {
			recoveredSomewhere = true
		}
	}
	if !recoveredSomewhere {
		t.Error("optimal matching never beat first-fit; constraint tables too lax")
	}
	if !strings.Contains(r.WeightDemo, "FLOPS (weight 5) wins") {
		t.Errorf("weight demo: %s", r.WeightDemo)
	}
}

func TestE5Shape(t *testing.T) {
	r, err := E5()
	if err != nil {
		t.Fatal(err)
	}
	byPlat := map[string]E5Row{}
	for _, row := range r.Rows {
		byPlat[row.Platform] = row
		if row.Hits == 0 {
			t.Errorf("%s: no profile hits", row.Platform)
		}
	}
	// Exact mechanisms: in-order interrupts and hardware sampling.
	for _, p := range []string{papi.PlatformCrayT3E, papi.PlatformTru64Alpha, papi.PlatformLinuxIA64} {
		if byPlat[p].PctCorrect < 0.98 {
			t.Errorf("%s: only %.1f%% correct attribution, want ~100%%", p, byPlat[p].PctCorrect*100)
		}
	}
	// Skidding OOO interrupts: badly wrong.
	for _, p := range []string{papi.PlatformLinuxX86, papi.PlatformIRIXMips} {
		if byPlat[p].PctCorrect > 0.50 {
			t.Errorf("%s: %.1f%% correct despite skid, want low", p, byPlat[p].PctCorrect*100)
		}
	}
}

func TestE6Shape(t *testing.T) {
	r, err := E6()
	if err != nil {
		t.Fatal(err)
	}
	byPlat := map[string]E6Row{}
	for _, row := range r.Rows {
		byPlat[row.Platform] = row
	}
	p3 := byPlat[papi.PlatformAIXPower3]
	x86 := byPlat[papi.PlatformLinuxX86]
	// POWER3 over-counts by the rounding instructions (kernel has one
	// frsp per 2 arith FP: 50% over).
	if p3.OverPct < 0.40 || p3.OverPct > 0.60 {
		t.Errorf("power3 over-count %.2f, want ~50%%", p3.OverPct)
	}
	if uint64(p3.Corrected) != p3.Expected {
		t.Errorf("power3 corrected %d != expected %d", p3.Corrected, p3.Expected)
	}
	if uint64(x86.Measured) != x86.Expected {
		t.Errorf("x86 measured %d != expected %d", x86.Measured, x86.Expected)
	}
}

func TestE7Shape(t *testing.T) {
	r, err := E7()
	if err != nil {
		t.Fatal(err)
	}
	n3 := int64(r.N * r.N * r.N)
	for _, row := range r.Rows {
		if row.FMA != n3 {
			t.Errorf("%s: FMA_INS %d, want %d", row.Platform, row.FMA, n3)
		}
		if row.FPOps != 2*n3 {
			t.Errorf("%s: FP_OPS %d, want %d (FMA x2)", row.Platform, row.FPOps, 2*n3)
		}
		if row.Ratio < 1.99 || row.Ratio > 2.01 {
			t.Errorf("%s: ratio %.3f, want 2.0", row.Platform, row.Ratio)
		}
		if row.FPIns != n3 {
			t.Errorf("%s: FP_INS %d, want %d (FMA is one instruction)", row.Platform, row.FPIns, n3)
		}
		if row.MFLOPS <= 0 {
			t.Errorf("%s: MFLOPS %.2f", row.Platform, row.MFLOPS)
		}
	}
}

func TestE8Shape(t *testing.T) {
	r, err := E8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(papi.Platforms()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ResolutionUsec <= 0 || row.ResolutionUsec > 0.01 {
			t.Errorf("%s: resolution %.5f usec implausible", row.Platform, row.ResolutionUsec)
		}
		// Timers are the cheap path: never above a counter read, and
		// far below it wherever reads go through a syscall or library.
		if row.CostCycles > row.ReadCostCycles {
			t.Errorf("%s: timer cost %d above read cost %d", row.Platform, row.CostCycles, row.ReadCostCycles)
		}
		if row.ReadCostCycles >= 900 && row.CostCycles*10 > row.ReadCostCycles {
			t.Errorf("%s: timer cost %d not ≪ read cost %d", row.Platform, row.CostCycles, row.ReadCostCycles)
		}
		// 30% interference: real/virt ≈ 1.3.
		if row.RealOverVirt < 1.2 || row.RealOverVirt > 1.4 {
			t.Errorf("%s: real/virt %.3f, want ~1.3", row.Platform, row.RealOverVirt)
		}
	}
}

func TestE9Shape(t *testing.T) {
	r, err := E9()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatal("need both modes")
	}
	v3, v2 := r.Rows[0], r.Rows[1]
	if v2.Mode != "v2 overlapping" || v3.Mode != "v3 exclusive" {
		t.Fatalf("row order: %+v", r.Rows)
	}
	if v2.FootprintBytes <= v3.FootprintBytes {
		t.Errorf("v2 footprint %d should exceed v3 %d", v2.FootprintBytes, v3.FootprintBytes)
	}
	if v2.MgmtCycles <= v3.MgmtCycles {
		t.Errorf("v2 management cycles %d should exceed v3 %d", v2.MgmtCycles, v3.MgmtCycles)
	}
}

func TestE10Shape(t *testing.T) {
	r, err := E10()
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]E10Row{}
	for _, row := range r.Rows {
		costs[row.Platform] = row
		if row.Start == 0 || row.Read == 0 || row.Stop == 0 {
			t.Errorf("%s: zero-cost operation %+v", row.Platform, row)
		}
	}
	t3e, x86 := costs[papi.PlatformCrayT3E], costs[papi.PlatformLinuxX86]
	if t3e.Read*50 > x86.Read {
		t.Errorf("t3e read (%d) should be ≥50x cheaper than x86 syscall read (%d)", t3e.Read, x86.Read)
	}
}

func TestE11Shape(t *testing.T) {
	r, err := E11()
	if err != nil {
		t.Fatal(err)
	}
	if r.Proc.SwapOuts == 0 {
		t.Error("scenario should have forced a swap-out")
	}
	if r.Node.HighWaterBytes < r.Node.UsedBytes {
		t.Error("high water below current usage")
	}
	if r.Proc.HighWaterBytes < r.Proc.UsedBytes {
		t.Error("process high water below current usage")
	}
	if r.Thread.UsedBytes == 0 {
		t.Error("thread arena empty")
	}
	if r.ObjA.Bytes != 24<<20 {
		t.Errorf("matrix_a size %d", r.ObjA.Bytes)
	}
	sumLoc := uint64(0)
	for _, b := range r.Local {
		sumLoc += b
	}
	if sumLoc != r.Proc.UsedBytes {
		t.Errorf("locality sums to %d, process resident %d", sumLoc, r.Proc.UsedBytes)
	}
	if len(r.rows) < 7 {
		t.Errorf("table should cover all seven §5 items, has %d", len(r.rows))
	}
}

func TestF2Shape(t *testing.T) {
	r, err := F2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Front.Points) < 12 {
		t.Fatalf("only %d trace points", len(r.Front.Points))
	}
	rates := r.Front.SectionMeanRate()
	if rates["compute_a"] <= rates["gather"] || rates["compute_b"] <= rates["gather"] {
		t.Errorf("FLOP rate must dip in the gather phase: %v", rates)
	}
	secs := strings.Join(r.Front.Sections(), ",")
	for _, want := range []string{"compute_a", "gather", "compute_b"} {
		if !strings.Contains(secs, want) {
			t.Errorf("sections %q missing %s", secs, want)
		}
	}
	if r.Sparkline == "" {
		t.Error("no sparkline")
	}
}

// TestAllRunnersProduceTables runs and renders every experiment, and
// pins the rendering to testdata/tables.golden — the output of
// `go run ./cmd/experiments`, recorded before the instruction streams
// were lent and replayed. The experiments are deterministic, so the
// simulator's exactness rule (DESIGN.md §6: a speed-up may not move a
// simulated count by one) reaches the paper's tables here. Regenerate
// with -update only for a deliberate change to the model or a table.
func TestAllRunnersProduceTables(t *testing.T) {
	path := filepath.Join("testdata", "tables.golden")
	golden, err := os.ReadFile(path)
	if err != nil && !*update {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, runner := range All() {
		tab, err := runner.Run()
		if err != nil {
			t.Errorf("%s: %v", runner.ID, err)
			continue
		}
		if tab.ID != runner.ID {
			t.Errorf("runner %s produced table %s", runner.ID, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", runner.ID)
		}
		text := tab.String() + "\n" // as cmd/experiments prints it
		if !strings.Contains(text, tab.Title) {
			t.Errorf("%s: rendering broken", runner.ID)
		}
		if !*update && !strings.Contains(string(golden), text) {
			t.Errorf("%s: table differs from %s:\n%s", runner.ID, path, text)
		}
		out.WriteString(text)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if out.Len() != len(golden) {
		t.Errorf("tables render to %d bytes, %s has %d", out.Len(), path, len(golden))
	}
}

func TestA1Shape(t *testing.T) {
	r, err := A1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatal("need a sweep")
	}
	// Overhead decreases monotonically with slice length.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Overhead > r.Rows[i-1].Overhead+0.005 {
			t.Errorf("overhead rose with longer slices: %+v -> %+v", r.Rows[i-1], r.Rows[i])
		}
	}
	// The extreme long slice leaves events unmeasured or badly off.
	last := r.Rows[len(r.Rows)-1]
	if last.Unmeasured == 0 && last.FPRelErr < 0.10 {
		t.Errorf("1.6M-cycle slices should hurt: %+v", last)
	}
	// A middle setting is both cheap and accurate.
	mid := r.Rows[2] // 50k
	if mid.Overhead > 0.25 || mid.FPRelErr > 0.10 || mid.Unmeasured > 0 {
		t.Errorf("mid interval should be a good tradeoff: %+v", mid)
	}
}

func TestA2Shape(t *testing.T) {
	r, err := A2()
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	// Denser sampling costs more and errs less; sparser the reverse.
	if first.Overhead <= last.Overhead {
		t.Errorf("period 64 overhead %.4f should exceed period 4096 %.4f", first.Overhead, last.Overhead)
	}
	if first.RelErr > 0.02 {
		t.Errorf("densest sampling err %.4f, want < 2%%", first.RelErr)
	}
	if last.RelErr < first.RelErr {
		t.Errorf("sparsest sampling err %.4f should exceed densest %.4f", last.RelErr, first.RelErr)
	}
}

func TestE12Shape(t *testing.T) {
	r, err := E12()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]E12Row{}
	for _, row := range r.Rows {
		rows[row.Region] = row
		if row.Usec == 0 {
			t.Errorf("%s: no time", row.Region)
		}
	}
	fp, mem := rows["fp_kernel"], rows["mem_kernel"]
	if fp.FPRate <= mem.FPRate {
		t.Errorf("FP rate: fp_kernel %.2f should exceed mem_kernel %.2f", fp.FPRate, mem.FPRate)
	}
	if mem.MissRate <= fp.MissRate {
		t.Errorf("miss rate: mem_kernel %.2f should exceed fp_kernel %.2f", mem.MissRate, fp.MissRate)
	}
	if mem.TLBRate <= fp.TLBRate {
		t.Errorf("TLB rate: mem_kernel %.2f should exceed fp_kernel %.2f", mem.TLBRate, fp.TLBRate)
	}
}

func TestExperimentCatalogStable(t *testing.T) {
	// The catalog is part of the published interface: EXPERIMENTS.md,
	// the bench harness and the CLI all address experiments by ID.
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "F2", "E12", "A1", "A2"}
	runners := All()
	if len(runners) != len(want) {
		t.Fatalf("%d experiments, want %d", len(runners), len(want))
	}
	for i, r := range runners {
		if r.ID != want[i] {
			t.Errorf("slot %d: %s, want %s", i, r.ID, want[i])
		}
		if r.Name == "" {
			t.Errorf("%s: unnamed", r.ID)
		}
	}
	if _, err := Render("E99"); err == nil {
		t.Error("unknown experiment rendered")
	}
}
