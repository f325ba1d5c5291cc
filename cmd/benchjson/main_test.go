package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestParseBenchProcsSuffix: Go prints the GOMAXPROCS suffix only when
// it is not 1, so the "-8" of a sub-benchmark named queriers-8 is part
// of its name at every width but 8 — and the row carries one name
// whichever host recorded it.
func TestParseBenchProcsSuffix(t *testing.T) {
	for _, tc := range []struct {
		line       string
		gomaxprocs int
		want       string
	}{
		{"BenchmarkServerQuery/queriers-8   \t 100\t 94888 ns/op\t 5.5 x-compression", 1, "ServerQuery/queriers-8"},
		{"BenchmarkServerQuery/queriers-8-2 \t 100\t 94888 ns/op\t 5.5 x-compression", 2, "ServerQuery/queriers-8"},
		{"BenchmarkServerQuery/queriers-8-8 \t 100\t 94888 ns/op\t 5.5 x-compression", 8, "ServerQuery/queriers-8"},
		{"BenchmarkTickParallel/workers=2-2 \t 100\t 94888 ns/op\t 5.5 x-compression", 2, "TickParallel/workers=2"},
		{"BenchmarkTSDBEncode               \t 100\t 94888 ns/op\t 5.5 x-compression", 1, "TSDBEncode"},
	} {
		r, ok := parseBench(tc.line, "repro/x", tc.gomaxprocs)
		if !ok {
			t.Errorf("%q did not parse", tc.line)
			continue
		}
		if r.Name != tc.want || r.Package != "repro/x" || r.Iterations != 100 {
			t.Errorf("%q at GOMAXPROCS %d parsed as %+v, want name %q", tc.line, tc.gomaxprocs, r, tc.want)
		}
		if r.Metrics["ns/op"] != 94888 || r.Metrics["x-compression"] != 5.5 {
			t.Errorf("%q: metrics %v", tc.line, r.Metrics)
		}
	}
	if _, ok := parseBench("ok  \trepro/x\t1.2s", "repro/x", 2); ok {
		t.Error("a non-benchmark line parsed")
	}
}

// TestDiffGate pins the gate's exit code: a regression past
// -max-regress fails, one inside it passes, and a gate that aligned no
// pair fails too — comparing nothing is not a pass.
func TestDiffGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gomaxprocs int, rows map[string]float64) string {
		t.Helper()
		doc := File{GOMAXPROCS: gomaxprocs}
		for bench, ns := range rows {
			doc.Results = append(doc.Results, Result{Package: "repro/x", Name: bench,
				Metrics: map[string]float64{"ns/op": ns, "allocs/op": 10}})
		}
		data, err := json.Marshal(&doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 2, map[string]float64{"ServerQuery/queriers-8": 1000, "Other": 1000})
	for _, tc := range []struct {
		name string
		file string
		gate string
		want int
	}{
		{"inside the bound", write("in.json", 2, map[string]float64{"ServerQuery/queriers-8": 1200, "Other": 5000}), "ServerQuery", 0},
		{"past the bound", write("out.json", 2, map[string]float64{"ServerQuery/queriers-8": 1300}), "ServerQuery", 1},
		{"ungated regression", write("free.json", 2, map[string]float64{"ServerQuery/queriers-8": 1300}), "", 0},
		// What the pre-gomaxprocs parser wrote for the same benchmark: the
		// row aligns with nothing, and the gate must say so.
		{"no pair aligned", write("old.json", 0, map[string]float64{"ServerQuery/queriers": 1000}), "ServerQuery", 1},
		{"gate matches nothing", write("same.json", 2, map[string]float64{"Other": 1000}), "ServerQuery", 1},
	} {
		if got := runDiff([]string{base, tc.file}, tc.gate, 25, false); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestDiffGateAllocs pins what -gate-allocs gates: allocs/op past the
// bound, including any growth of a row that allocated nothing — a
// percentage of 0 is undefined, and such a row is the one most worth
// keeping at 0 — and not B/op, whose amortized bytes spread.
func TestDiffGateAllocs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, allocs, bytes float64) string {
		t.Helper()
		doc := File{GOMAXPROCS: 2, Results: []Result{{Package: "repro/x", Name: "SimulatedReplay",
			Metrics: map[string]float64{"ns/op": 1000, "allocs/op": allocs, "B/op": bytes}}}}
		data, err := json.Marshal(&doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	zero, some := write("zero.json", 0, 0), write("some.json", 300, 60000)
	for _, tc := range []struct {
		name       string
		old, new   string
		gateAllocs bool
		want       int
	}{
		{"0 stays 0", zero, write("zero2.json", 0, 0), true, 0},
		{"0 grows to 1", zero, write("one.json", 1, 16), true, 1},
		{"0 grows, allocs not gated", zero, write("one2.json", 1, 16), false, 0},
		{"0 allocs, bytes appear", zero, write("bytes.json", 0, 3), true, 0},
		{"inside the bound", some, write("more.json", 360, 60000), true, 0},
		{"past the bound", some, write("most.json", 400, 60000), true, 1},
		{"bytes past the bound", some, write("fat.json", 300, 90000), true, 0},
		{"falls to 0", some, zero, true, 0},
	} {
		if got := runDiff([]string{tc.old, tc.new}, "Simulated", 25, tc.gateAllocs); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}
