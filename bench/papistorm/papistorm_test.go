package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestWorkloads runs every workload for one second against a real
// papid process with all output checks on, then the traced replay, and
// validates what comes out against the metric tables.
func TestWorkloads(t *testing.T) {
	dir := t.TempDir()
	bin, err := buildPapid(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			r := &runner{sp: sp, seed: 7, bin: bin, outDir: dir, rounds: 1,
				warmup: 300 * time.Millisecond, window: time.Second}
			res, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.Failure)
			}
			if res.Invalid != "" {
				t.Logf("generator limits (not an output check): %s", res.Invalid)
			}
			if err := tracedReplay(sp, 7, dir, r.window, res); err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", m.name, got, m.unit)
				}
				if got.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; every workload must exercise it", m.name, got.Value)
				}
			}
			for _, name := range perLayer {
				if _, ok := res.Layers[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			for name := range res.Layers {
				if !slices.Contains(perLayer, name) {
					t.Errorf("per-layer metric %s reported but not listed", name)
				}
			}
			if got := res.Layers["client.delivered_ratio"].Value; got != 1 {
				t.Errorf("client.delivered_ratio = %v, want 1", got)
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+sp.name+".json")); err != nil {
				t.Error(err)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(driverLine(res, false)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(endToEnd) {
				t.Errorf("driver line: %+v", line)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("BENCHMARK.json has keys the schema does not allow: %v", keys)
	}
	if !slices.Equal(bm.Paths, []string{"bench"}) || len(bm.Command) == 0 {
		t.Errorf("paths %v, command %v", bm.Paths, bm.Command)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(bm.Workloads), len(specs))
	}
	for i, w := range bm.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q does not match spec %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range bm.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Bound != want.bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: %+v does not match %+v", i, m, want)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the schema", m)
		}
	}
	var layers []string
	for _, m := range bm.PerLayer {
		layers = append(layers, m.Name)
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the schema", m)
		}
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\ntable          %v", layers, perLayer)
	}
	if len(bm.PerLayer) > 128 || len(b) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d bytes: over the schema's limits", len(bm.PerLayer), len(b))
	}
}

func TestPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n < 200; n += 7 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		for _, p := range []float64{0.01, 0.5, 0.75, 0.9, 0.99, 1} {
			// Brute force: the smallest value with at least p of the
			// sample at or below it.
			want := int64(-1)
			for _, v := range sorted {
				atOrBelow := 0
				for _, u := range vals {
					if u <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= p*float64(n) {
					want = v
					break
				}
			}
			if got := percentile(sorted, p); got != want {
				t.Fatalf("n=%d p=%v: percentile %d, brute force %d", n, p, got, want)
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

// TestPacer holds the pacer to its contract: never early, and on time
// for most slots even on a test machine busy with other packages.
func TestPacer(t *testing.T) {
	offs := make([]time.Duration, 100)
	for i := range offs {
		offs[i] = time.Duration(i+1) * 2 * time.Millisecond
	}
	start := time.Now()
	var fired []time.Duration
	var spun time.Duration
	late := pace(start, offs, func(i int, sp time.Duration) {
		fired = append(fired, time.Since(start))
		if sp < spun {
			t.Fatalf("slot %d: spin time fell from %v to %v", i, spun, sp)
		}
		spun = sp
	})
	for i, at := range fired {
		if at < offs[i] {
			t.Fatalf("slot %d fired at %v, before its due time %v", i, at, offs[i])
		}
	}
	slices.Sort(late)
	p50 := time.Duration(percentile(late, 0.5))
	t.Logf("lateness p50 %v, p99 %v", p50, time.Duration(percentile(late, 0.99)))
	if p50 > 5*time.Millisecond {
		t.Errorf("median lateness %v, want under 5ms", p50)
	}
	if spun <= 0 || spun > time.Since(start) {
		t.Errorf("pacer reports %v of spinning in %v", spun, time.Since(start))
	}
}

// TestHostSpeed: a harness that needs twice the reference CPU for its
// fixed work halves every time measured in that slice, and the pacer's
// spinning is no work.
func TestHostSpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	edges := []edge{
		{at: t0, selfCPU: 500, spun: 100},
		{at: t0.Add(time.Second), selfCPU: 600, spun: 140},     // 100 ms of CPU, 40 of them spinning
		{at: t0.Add(3 * time.Second), selfCPU: 920, spun: 220}, // 320 ms in 2 s, 80 spinning
	}
	gauge, speed := hostSpeed(edges, 60)
	if !slices.Equal(gauge, []float64{60, 120}) || !slices.Equal(speed, []float64{1, 0.5}) {
		t.Errorf("gauge %v speed %v, want [60 120] and [1 0.5]", gauge, speed)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b := sp.schedule(3, warmup, time.Second), sp.schedule(3, warmup, time.Second)
		if !slices.Equal(a, b) {
			t.Errorf("%s: same seed, different schedules", sp.name)
		}
		if slices.Equal(a, sp.schedule(4, warmup, time.Second)) {
			t.Errorf("%s: the seed does not reach the schedule", sp.name)
		}
	}
	a, b := make([]int64, dueIdx), make([]int64, dueIdx)
	rowValues(3, 5, 100, a)
	rowValues(4, 5, 100, b)
	if slices.Equal(a, b) {
		t.Error("the seed does not reach the published values")
	}
	rowValues(3, 5, 101, b)
	for j := range a {
		if b[j] < a[j] {
			t.Errorf("counter %d fell from %d to %d between rows", j, a[j], b[j])
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(scale float64, spread float64) *results {
		r := &results{Meta: meta{Seconds: 20, NProc: 2}, Workloads: map[string]*result{}}
		for _, sp := range specs {
			res := &result{Workload: sp.name, Metrics: map[string]metric{}}
			for _, m := range endToEnd {
				res.Metrics[m.name] = metric{Value: 100, Unit: m.unit}
			}
			res.Metrics["delivery_lag_p50_us"] = metric{Value: 100 * scale, Unit: "us", Spread: spread}
			r.Workloads[sp.name] = res
		}
		return r
	}
	var out bytes.Buffer
	if code := compareResults(&out, mk(1, 0), mk(1.02, 0)); code != 0 || strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a change inside the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, mk(1, 0), mk(2, 0)); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a doctored file: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, mk(1, 0), mk(1.02, 0.5)); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a noisy run inside the bound must read unresolved, not unchanged: exit %d\n%s", code, out.String())
	}
	out.Reset()
	missing := mk(1, 0)
	delete(missing.Workloads, "view_fanout")
	if code := compareResults(&out, mk(1, 0), missing); code != 1 {
		t.Errorf("a missing workload: exit %d", code)
	}

	// And through files, as the command line does it.
	dir := t.TempDir()
	write := func(name string, r *results) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(dir, name)
		if err := os.WriteFile(file, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return file
	}
	out.Reset()
	if code := compareFiles(&out, write("a.json", mk(1, 0)), write("b.json", mk(2, 0))); code != 1 {
		t.Errorf("doctored file through compareFiles: exit %d", code)
	}
	if code := compareFiles(&out, write("a.json", mk(1, 0)), filepath.Join(dir, "absent.json")); code != 1 {
		t.Errorf("absent file: exit %d", code)
	}
}
