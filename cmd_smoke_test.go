package repro

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// Smoke tests for the command-line tools: run each binary the way a
// user would and check for the headline content. These go through `go
// run`, so they exercise flag parsing and output formatting end to end.

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCmdPapiAvail(t *testing.T) {
	out := runCmd(t, "./cmd/papi-avail", "-platform", "irix-mips", "-native")
	for _, want := range []string{"MIPS R10000", "PAPI_TOT_INS", "Instr_graduated", "NATIVE EVENT"} {
		if !strings.Contains(out, want) {
			t.Errorf("papi-avail output missing %q:\n%s", want, out)
		}
	}
	// R10K cannot map every preset.
	if !strings.Contains(out, "of 19 presets available") || strings.Contains(out, "19 of 19") {
		t.Errorf("R10K availability line wrong:\n%s", out)
	}
}

// TestPapidFlagsAreREADMEsTable: README's papid flag table is papid's
// flag set. It runs papid -h and fails on a flag the table lacks, a row
// for a flag papid does not define, and a row whose default is not the
// one papid prints — so a flag that comes back needs its row, and a
// deleted one takes its row with it.
func TestPapidFlagsAreREADMEsTable(t *testing.T) {
	out, _ := exec.Command("go", "run", "./cmd/papid", "-h").CombinedOutput()
	flags := make(map[string]string) // name → default, "" when -h prints none
	var name string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(line, "  -") {
			name = strings.TrimPrefix(f[0], "-")
			flags[name] = ""
		} else if name != "" && strings.HasSuffix(line, ")") {
			if i := strings.LastIndex(line, "(default "); i >= 0 {
				flags[name] = strings.Trim(line[i+len("(default "):len(line)-1], `"`)
			}
		}
	}
	if len(flags) == 0 {
		t.Fatalf("papid -h listed no flags:\n%s", out)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	table := make(map[string]string)
	inTable := false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| flag | default |") {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "| ---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("malformed flag-table row %q", line)
		}
		flag := strings.TrimPrefix(strings.Trim(strings.TrimSpace(cells[1]), "`"), "-")
		def := ""
		if _, rest, ok := strings.Cut(cells[2], "`"); ok {
			def, _, _ = strings.Cut(rest, "`")
		}
		table[flag] = def
	}
	if len(table) == 0 {
		t.Fatal("README has no `| flag | default |` table")
	}
	for flag, def := range flags {
		if row, ok := table[flag]; !ok {
			t.Errorf("papid defines -%s, which README's flag table lacks", flag)
		} else if row != def {
			t.Errorf("-%s: README's default is %q, papid -h prints %q", flag, row, def)
		}
	}
	for flag := range table {
		if _, ok := flags[flag]; !ok {
			t.Errorf("README lists -%s, which papid does not define", flag)
		}
	}
}

func TestCmdPapirun(t *testing.T) {
	out := runCmd(t, "./cmd/papirun", "-platform", "aix-power3", "-workload", "dot", "-n", "64", "-events", "PAPI_FP_OPS,PAPI_TOT_CYC")
	if !strings.Contains(out, "PAPI_FP_OPS") || !strings.Contains(out, "virtual time") {
		t.Errorf("papirun output:\n%s", out)
	}
	// dot n=64 → N=4096 elements → 8192 FLOPs.
	if !strings.Contains(out, "8192") {
		t.Errorf("papirun FP_OPS should be 8192:\n%s", out)
	}
}

func TestCmdExperimentsSingle(t *testing.T) {
	out := runCmd(t, "./cmd/experiments", "-e", "e10")
	if !strings.Contains(out, "papi_cost") || !strings.Contains(out, "cray-t3e") {
		t.Errorf("experiments -e e10 output:\n%s", out)
	}
}

func TestCmdDynaprofList(t *testing.T) {
	out := runCmd(t, "./cmd/dynaprof", "-list")
	for _, fn := range []string{"main", "solve_step", "smooth"} {
		if !strings.Contains(out, fn) {
			t.Errorf("dynaprof -list missing %s:\n%s", fn, out)
		}
	}
}

func TestCmdPapiprof(t *testing.T) {
	out := runCmd(t, "./cmd/papiprof", "-metrics", "PAPI_FP_INS", "-workload", "dot", "-n", "64", "-top", "3")
	if !strings.Contains(out, "PAPI_FP_INS") || !strings.Contains(out, "dot.c:") {
		t.Errorf("papiprof output:\n%s", out)
	}
}

func TestCmdMpirun(t *testing.T) {
	out := runCmd(t, "./cmd/mpirun", "-np", "2", "-n", "24")
	if !strings.Contains(out, "ring exchange") || !strings.Contains(out, "FLOP rate by activity") {
		t.Errorf("mpirun output:\n%s", out)
	}
}

func TestCmdPerfometerTrace(t *testing.T) {
	out := runCmd(t, "./cmd/perfometer", "-platform", "linux-ia64", "-width", "40")
	if !strings.Contains(out, "peak rate") || !strings.Contains(out, "sections") {
		t.Errorf("perfometer output:\n%s", out)
	}
}

// TestCmdPerfometerFollowDerived runs perfometer's -follow mode with
// -derive against a live in-process papid: the CLI subscribes to a
// ticking session with the ipc group and prints the DERIVED frames as
// they stream, then a sparkline per metric.
func TestCmdPerfometerFollowDerived(t *testing.T) {
	srv := server.New(server.Config{TickInterval: 5 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cl, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	created, err := cl.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: created.Session}); err != nil {
		t.Fatal(err)
	}

	out := runCmd(t, "./cmd/perfometer", "-papid", addr.String(),
		"-session", fmt.Sprint(created.Session), "-derive", "ipc", "-follow", "1s", "-width", "30")
	for _, want := range []string{"perfometer follow", "follow summary", ": ipc ", "instr/cycle",
		"derived frames in 1s", "  ipc ", "  mips "} {
		if !strings.Contains(out, want) {
			t.Errorf("follow -derive output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdPerfometerHistory runs perfometer's -papid history mode
// against a live in-process papid: a ticking session accumulates
// history, then the CLI queries and renders it.
func TestCmdPerfometerHistory(t *testing.T) {
	srv := server.New(server.Config{TickInterval: 5 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cl, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	created, err := cl.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: created.Session}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.Stats()["tsdb_samples"] >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("history never accumulated")
		}
		time.Sleep(10 * time.Millisecond)
	}

	out := runCmd(t, "./cmd/perfometer", "-papid", addr.String(),
		"-session", "1", "-last", "1m", "-step", "1s", "-width", "30")
	for _, want := range []string{"perfometer history", "PAPI_TOT_CYC", "windows", "last total"} {
		if !strings.Contains(out, want) {
			t.Errorf("history output missing %q:\n%s", want, out)
		}
	}
}
