// papistorm is the repository's benchmark: an open-loop load generator
// that builds cmd/papid, runs it as a separate process, drives it over
// two loopback TCP connections, checks every output, and reports what a
// user of papid sees — delivery lag, PUBLISH and QUERY latency, wire
// bytes, and the CPU and memory papid spends — plus, with -trace 1, a
// price for each layer underneath. bench/README.md is the manual.
//
//	go run ./bench/papistorm -seed 1 -out bench/out             # all workloads
//	go run ./bench/papistorm -seed 1 -trace 1                   # ... with per-layer metrics
//	go run ./bench/papistorm -workload live_fanout -seconds 21  # one workload, JSON result line
//	go run ./bench/papistorm -compare a/results.json b/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// meta records where and how a set of results was measured.
type meta struct {
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	WarmupS    float64 `json:"warmup_s"`
	Rounds     int     `json:"rounds_per_run"`
	KeepAwake  bool    `json:"keep_awake"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
}

// results is the schema of results.json.
type results struct {
	Meta      meta               `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's HEAD, when the working directory is the
// root of a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(run())
}

// run is main with an exit code, so that its deferred calls (stopping
// the keep-awake child) run before the process exits.
func run() int {
	workload := flag.String("workload", "", "run only this workload and end with one JSON result line; empty runs all four")
	seed := flag.Int64("seed", 1, "seed of every generated value, session order and query choice")
	seconds := flag.Int("seconds", 21, "measured time per workload, split over the rounds in whole seconds, after each round's warm-up")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
	out := flag.String("out", "bench/out", "directory for the papid binary, results.json, trace files and scratch data")
	compare := flag.Bool("compare", false, "compare two results.json files: papistorm -compare base.json new.json")
	keepAwake := flag.Bool("keepawake", false, "internal: run as the keep-awake child (see keepawake.go)")
	flag.Parse()
	if *keepAwake {
		keepAwakeMain()
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail("usage: papistorm -compare base.json new.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	todo := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			return fail("unknown workload %q", *workload)
		}
		todo = []spec{*sp}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail("%v", err)
	}
	bin, err := buildPapid(*out)
	if err != nil {
		return fail("%v", err)
	}

	// The pacer, the two readers and this goroutine can all be runnable
	// at once, and a goroutine coming back from nanosleep with no free P
	// waits for the scheduler to retake one, milliseconds late. Spare Ps
	// cost nothing. The harness's heap is small, so it also collects
	// less often than the default to stay out of its own way.
	runtime.GOMAXPROCS(runtime.NumCPU() + 2)
	debug.SetGCPercent(400)
	stopKeepAwake, err := startKeepAwake()
	if err != nil {
		fmt.Fprintf(os.Stderr, "papistorm: %v; timings will be noisier\n", err)
	} else {
		defer stopKeepAwake()
	}

	all := results{
		Meta: meta{Seed: *seed, Seconds: *seconds, WarmupS: warmup.Seconds(), Rounds: nRounds, KeepAwake: err == nil,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPUModel: cpuModel(), Commit: commit()},
		Workloads: map[string]*result{},
	}
	code := 0
	for i := range todo {
		sp := &todo[i]
		r := &runner{sp: sp, seed: *seed, bin: bin, outDir: *out, rounds: nRounds, warmup: warmup,
			window: max(time.Duration(*seconds)*time.Second/nRounds/sliceLen, 1) * sliceLen}
		res, err := r.run()
		if err != nil {
			return fail("%s: %v", sp.name, err)
		}
		if res.Invalid != "" {
			fmt.Printf("%s INVALID %s\n", sp.name, res.Invalid)
			code = 1
			continue
		}
		if *trace == 1 {
			if err := tracedReplay(sp, *seed, *out, r.window, res); err != nil {
				return fail("%s: traced replay: %v", sp.name, err)
			}
		}
		all.Workloads[sp.name] = res
		for _, m := range endToEnd {
			fmt.Printf("%s %s %.4f %s\n", sp.name, m.name, res.Metrics[m.name].Value, m.unit)
		}
		if *trace == 1 {
			for _, name := range perLayer {
				fmt.Printf("%s %s %.4f %s\n", sp.name, name, res.Layers[name].Value, res.Layers[name].Unit)
			}
		}
		if res.Failed > 0 {
			fmt.Printf("%s FAILED %d of %d: %s\n", sp.name, res.Failed, res.Attempted, res.Failure)
			code = 1
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, "results.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		return fail("results.json: %v", err)
	}
	if res := all.Workloads[*workload]; res != nil {
		fmt.Println(driverLine(res, *trace == 1))
	}
	return code
}

// driverLine is the one-line result the BENCHMARK.json contract asks a
// single-workload run to end with: every end-to-end metric without
// tracing, every per-layer metric with it.
func driverLine(res *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	if traced {
		for _, name := range perLayer {
			line.Metrics[name] = value{res.Layers[name].Value, res.Layers[name].Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.name] = value{res.Metrics[m.name].Value, m.unit}
		}
	}
	b, _ := json.Marshal(line) // a struct of numbers, strings and bools always marshals
	return string(b)
}

// fail reports an error and returns the exit code for it.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "papistorm: "+format+"\n", args...)
	return 1
}
