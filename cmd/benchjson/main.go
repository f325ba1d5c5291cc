// benchjson runs `go test -bench` and writes the results as JSON, so
// benchmark trajectories (compression ratios, throughput, query
// latency) are machine-readable instead of buried in test logs:
//
//	benchjson -out BENCH_tsdb.json -bench TSDB ./internal/tsdb
//
// The output records the environment (goos/goarch/cpu/gomaxprocs), the
// exact command, and one entry per benchmark with every metric Go
// reported — standard ones (ns/op, MB/s, B/op) and custom ReportMetric
// units (x-compression, B/sample) alike. A benchmark is named as the
// source names it: the "-N" Go appends when GOMAXPROCS is N ≠ 1 is
// stripped, a sub-benchmark's own "-8" ("ServerQuery/queriers-8") is
// not, so rows recorded on hosts of different widths carry one name.
//
// -diff compares two such files — the regression gate behind
// tools/bench.sh compare and the CI smoke check:
//
//	benchjson -diff -gate 'ServerQuery' -max-regress 25 old.json new.json
//
// It prints a per-benchmark, per-metric delta table — ns/op first,
// then every other recorded metric including allocs/op and B/op when
// the runs used -benchmem — and exits non-zero when any benchmark
// matching the -gate regexp regressed its ns/op by more than
// -max-regress percent. -gate-allocs additionally gates allocs/op for
// the same benchmarks, where any growth from 0 is a regression: the
// count does not move with host speed. B/op is printed, not gated: a
// row that allocates nothing per op still reports a few amortized bytes
// of runtime background, and they spread (ServerFanoutInterest/interest
// reads 1-6 B/op at 0 allocs/op). Rows align by
// (package, name); benchmarks present in only one file are reported but
// never gate — and a -gate that aligned no pair at all fails, so a gate
// that compares nothing cannot pass.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// File is the emitted document.
type File struct {
	Generated string `json:"generated"`
	Command   string `json:"command"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	// GOMAXPROCS the benchmarks ran at: go test inherits it from this
	// process's environment. Zero in files older than the field.
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Results    []Result `json:"results"`
}

// benchLine matches e.g.
//
//	BenchmarkTSDBQuery/queriers-8-4   12  94888 ns/op  5.5 x-compression
var benchLine = regexp.MustCompile(`^Benchmark(\S+)\s+(\d+)\s+(.+)$`)

func main() {
	out := flag.String("out", "", "output JSON file (required)")
	bench := flag.String("bench", ".", "benchmark regexp passed to go test")
	benchtime := flag.String("benchtime", "", "benchtime passed to go test (default go's 1s)")
	count := flag.Int("count", 1, "count passed to go test")
	benchmem := flag.Bool("benchmem", false, "pass -benchmem to go test, recording B/op and allocs/op")
	diff := flag.Bool("diff", false, "compare two result files: benchjson -diff [-gate re] [-max-regress pct] old.json new.json")
	gate := flag.String("gate", "", "with -diff, regexp of benchmark names whose ns/op regressions gate the exit code (empty gates nothing)")
	maxRegress := flag.Float64("max-regress", 25, "with -diff, max allowed ns/op regression percent for gated benchmarks")
	gateAllocs := flag.Bool("gate-allocs", false, "with -diff, also gate allocs/op regressions (any growth from 0 included) for -gate benchmarks")
	flag.Parse()
	if *diff {
		os.Exit(runDiff(flag.Args(), *gate, *maxRegress, *gateAllocs))
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out is required")
		os.Exit(2)
	}
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}

	args := []string{"test", "-run=^$", "-bench=" + *bench, "-count=" + strconv.Itoa(*count)}
	if *benchtime != "" {
		args = append(args, "-benchtime="+*benchtime)
	}
	if *benchmem {
		args = append(args, "-benchmem")
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fail(err)
	}
	if err := cmd.Start(); err != nil {
		fail(err)
	}

	doc := File{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Command:    "go " + strings.Join(args, " "),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // keep the human-readable stream visible
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if r, ok := parseBench(line, pkg, doc.GOMAXPROCS); ok {
				doc.Results = append(doc.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	if err := cmd.Wait(); err != nil {
		fail(fmt.Errorf("go test: %w", err))
	}
	if len(doc.Results) == 0 {
		fail(fmt.Errorf("no benchmark results matched -bench %q in %s", *bench, strings.Join(pkgs, " ")))
	}

	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("benchjson: %d results -> %s\n", len(doc.Results), *out)
}

// parseBench turns one "BenchmarkX-P  N  v unit  v unit..." line of a
// run at GOMAXPROCS gomaxprocs into a Result. Go appends "-P" only when
// P ≠ 1, so a trailing "-8" is the GOMAXPROCS suffix on an 8-wide run
// and part of the sub-benchmark's name ("queriers-8") on any other.
func parseBench(line, pkg string, gomaxprocs int) (Result, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	r := Result{Package: pkg, Name: m[1], Metrics: map[string]float64{}}
	if gomaxprocs != 1 {
		r.Name = strings.TrimSuffix(r.Name, "-"+strconv.Itoa(gomaxprocs))
	}
	r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// runDiff implements -diff: load two result files, align them by
// (package, name), print every metric's delta, and return the process
// exit code — non-zero when a gated benchmark's ns/op (or, with
// -gate-allocs, allocs/op) regressed past the threshold, or
// when -gate is set and no gated benchmark is in both files.
func runDiff(args []string, gate string, maxRegress float64, gateAllocs bool) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two files: old.json new.json")
		return 2
	}
	var gateRe *regexp.Regexp
	if gate != "" {
		re, err := regexp.Compile(gate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -gate %q: %v\n", gate, err)
			return 2
		}
		gateRe = re
	}
	oldDoc, err := loadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	newDoc, err := loadFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}

	type key struct{ pkg, name string }
	keyOf := func(r Result) key { return key{r.Package, r.Name} }
	oldBy := make(map[key]Result, len(oldDoc.Results))
	for _, r := range oldDoc.Results {
		oldBy[keyOf(r)] = r
	}
	seen := make(map[key]bool, len(newDoc.Results))

	fmt.Printf("benchjson diff: %s -> %s\n", args[0], args[1])
	procsNote := ""
	if oldDoc.GOMAXPROCS != newDoc.GOMAXPROCS {
		procsNote = fmt.Sprintf("gomaxprocs differs, %d -> %d (0: the file predates the field and may name rows differently)",
			oldDoc.GOMAXPROCS, newDoc.GOMAXPROCS)
		fmt.Println("  note:", procsNote)
	}
	failures, gatedPairs := 0, 0
	// Iterate the new file in order so the table reads like its source.
	for _, nr := range newDoc.Results {
		k := keyOf(nr)
		seen[k] = true
		or, ok := oldBy[k]
		if !ok {
			fmt.Printf("  %-52s (new benchmark; no baseline)\n", nr.Name)
			continue
		}
		gated := gateRe != nil && gateRe.MatchString(nr.Name)
		if gated {
			gatedPairs++
		}
		for _, metric := range sortedMetricNames(or.Metrics, nr.Metrics) {
			ov, haveOld := or.Metrics[metric]
			nv, haveNew := nr.Metrics[metric]
			switch {
			case !haveOld:
				fmt.Printf("  %-52s %-14s %14s -> %12.4g\n", nr.Name, metric, "(none)", nv)
			case !haveNew:
				fmt.Printf("  %-52s %-14s %12.4g -> %14s\n", nr.Name, metric, ov, "(gone)")
			default:
				pct := 0.0
				switch {
				case ov != 0:
					pct = (nv - ov) / ov * 100
				case nv > 0:
					pct = math.Inf(1) // a row at 0 that grows has grown past any bound
				}
				gating := metric == "ns/op" || (gateAllocs && metric == "allocs/op")
				verdict := ""
				if gated && gating && pct > maxRegress {
					verdict = fmt.Sprintf("  REGRESSION (> %.0f%%)", maxRegress)
					failures++
				}
				fmt.Printf("  %-52s %-14s %12.4g -> %12.4g  %+7.1f%%%s\n",
					nr.Name, metric, ov, nv, pct, verdict)
			}
		}
	}
	for _, or := range oldDoc.Results {
		if k := keyOf(or); !seen[k] {
			fmt.Printf("  %-52s (dropped; present only in baseline)\n", or.Name)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d gated regression(s) beyond %.0f%%\n",
			failures, maxRegress)
		return 1
	}
	if gateRe != nil && gatedPairs == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: -gate %q matched no benchmark present in both files: nothing was compared\n", gate)
		if procsNote != "" {
			fmt.Fprintln(os.Stderr, "benchjson:", procsNote)
		}
		return 1
	}
	fmt.Printf("benchjson: no gated regressions (%d gated pairs)\n", gatedPairs)
	return 0
}

func loadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc File
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return &doc, nil
}

// sortedMetricNames merges both sides' metric names, ns/op first so
// the gated number leads each benchmark's block.
func sortedMetricNames(a, b map[string]float64) []string {
	set := make(map[string]bool, len(a)+len(b))
	for m := range a {
		set[m] = true
	}
	for m := range b {
		set[m] = true
	}
	names := make([]string, 0, len(set))
	for m := range set {
		if m != "ns/op" {
			names = append(names, m)
		}
	}
	sort.Strings(names)
	if set["ns/op"] {
		names = append([]string{"ns/op"}, names...)
	}
	return names
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
