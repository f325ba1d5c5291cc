package papi_test

import (
	"testing"

	"repro/papi"
	"repro/workload"
)

// These tests exercise the public facade exactly as a downstream user
// would, on top of the full engine tests in internal/core.

func TestInitAllPlatforms(t *testing.T) {
	for _, p := range papi.Platforms() {
		sys, err := papi.Init(papi.Options{Platform: p})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if sys.Info().Platform != p {
			t.Errorf("%s: info mismatch", p)
		}
	}
	if _, err := papi.Init(papi.Options{Platform: "nonesuch"}); err == nil {
		t.Error("bad platform accepted")
	}
}

func TestEndToEndCountingThroughFacade(t *testing.T) {
	sys := papi.MustInit(papi.Options{Platform: papi.PlatformCrayT3E})
	th := sys.Main()
	es := th.NewEventSet()
	if err := es.AddAll(papi.FP_INS, papi.TOT_CYC); err != nil {
		t.Fatal(err)
	}
	prog := workload.Triad(workload.TriadConfig{N: 1000})
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	th.Run(prog)
	vals := make([]int64, 2)
	if err := es.Stop(vals); err != nil {
		t.Fatal(err)
	}
	want := int64(prog.Expected().FPInstrs())
	if vals[0] != want {
		t.Errorf("FP_INS = %d, want %d", vals[0], want)
	}
}

// TestOverflowOnCycles checks that a cycles threshold interrupts like
// any other event's: once per threshold the count crosses. Counting
// user mode only, every crossing is the program's own; counting both
// modes, many are raised by kernel-mode work (the interrupt's own cost,
// the library's) and wait for the next instruction. At most two can be
// undelivered when the run ends: one still in its skid, and one raised
// by Stop's own cost with no instruction after it. (Both-mode
// thresholds are above every platform's interrupt cost; below it each
// interrupt would raise the next.)
func TestOverflowOnCycles(t *testing.T) {
	for _, platform := range []string{papi.PlatformLinuxX86, papi.PlatformCrayT3E} {
		for _, tc := range []struct {
			ev        papi.Event
			domain    papi.Domain
			threshold int64
		}{
			{papi.TOT_INS, papi.DOM_USER, 1000},
			{papi.TOT_CYC, papi.DOM_USER, 1000},
			{papi.TOT_INS, papi.DOM_ALL, 1000},
			{papi.TOT_CYC, papi.DOM_ALL, 20000},
		} {
			th := papi.MustInit(papi.Options{Platform: platform}).Main()
			es := th.NewEventSet()
			if err := es.Add(tc.ev); err != nil {
				t.Fatal(err)
			}
			if err := es.SetDomain(tc.domain); err != nil {
				t.Fatal(err)
			}
			fires := int64(0)
			if err := es.SetOverflow(tc.ev, uint64(tc.threshold), func(*papi.EventSet, uint64, papi.Event) { fires++ }); err != nil {
				t.Fatal(err)
			}
			if err := es.Start(); err != nil {
				t.Fatal(err)
			}
			th.Run(workload.MatMul(workload.MatMulConfig{N: 24}))
			vals := make([]int64, 1)
			if err := es.Stop(vals); err != nil {
				t.Fatal(err)
			}
			if crossed := vals[0] / tc.threshold; fires < crossed-2 || fires > crossed {
				t.Errorf("%s %s, domain %d: %d counted, threshold %d, %d callbacks; want %d or up to two fewer",
					platform, papi.EventName(tc.ev), tc.domain, vals[0], tc.threshold, fires, crossed)
			}
		}
	}
}

func TestErrnoRoundTrip(t *testing.T) {
	sys := papi.MustInit(papi.Options{})
	es := sys.Main().NewEventSet()
	err := es.Add(papi.LD_INS) // unavailable on x86
	if err == nil {
		t.Fatal("expected ENOEVNT")
	}
	if !papi.IsErr(err, papi.ENOEVNT) {
		t.Errorf("expected ENOEVNT, got %v", err)
	}
	if papi.IsErr(err, papi.ECNFLCT) {
		t.Error("wrong code matched")
	}
	if papi.ENOEVNT.Error() == "" {
		t.Error("empty error text")
	}
}

func TestPresetMetadata(t *testing.T) {
	if len(papi.Presets()) < 19 {
		t.Errorf("only %d presets", len(papi.Presets()))
	}
	if papi.EventName(papi.FP_OPS) != "PAPI_FP_OPS" {
		t.Error("name mismatch")
	}
	if papi.EventDescription(papi.FP_OPS) == "" {
		t.Error("missing description")
	}
	ev, ok := papi.PresetByName("PAPI_TLB_DM")
	if !ok || ev != papi.TLB_DM {
		t.Error("lookup failed")
	}
}

func TestProfileConstruction(t *testing.T) {
	p, err := papi.NewProfile(0x1000, 64, papi.ProfileScaleUnit)
	if err != nil || len(p.Buckets) != 64 {
		t.Fatalf("NewProfile: %v", err)
	}
	p2, err := papi.NewProfileCovering(0x1000, 0x2000, 64)
	if err != nil || len(p2.Buckets) != 64 {
		t.Fatalf("NewProfileCovering: %v", err)
	}
	if _, err := papi.NewProfile(0, 0, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestQueryAndAvail(t *testing.T) {
	sys := papi.MustInit(papi.Options{Platform: papi.PlatformIRIXMips})
	avail := sys.AvailPresets()
	availCount := 0
	for _, pa := range avail {
		if pa.Avail {
			availCount++
			if !sys.QueryEvent(pa.Event) {
				t.Errorf("%s: avail but not queryable", pa.Name)
			}
		} else if sys.QueryEvent(pa.Event) {
			t.Errorf("%s: unavailable but queryable", pa.Name)
		}
	}
	// R10K genuinely lacks some presets.
	if availCount == len(avail) {
		t.Error("R10K should not map every preset")
	}
	if availCount < 10 {
		t.Errorf("R10K maps only %d presets", availCount)
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func(seed uint64) int64 {
		sys := papi.MustInit(papi.Options{Platform: papi.PlatformLinuxX86, Seed: seed})
		th := sys.Main()
		es := th.NewEventSet()
		es.AddAll(papi.L1_DCM, papi.TOT_CYC)
		es.Start()
		th.Run(workload.PointerChase(workload.ChaseConfig{Nodes: 2048, Steps: 20000}))
		vals := make([]int64, 2)
		es.Stop(vals)
		return vals[1]
	}
	if run(7) != run(7) {
		t.Error("same seed must reproduce identical cycle counts")
	}
}
