package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func loadResults(file string) (*results, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads", file)
	}
	return &r, nil
}

// verdict applies one metric's bound to a baseline and a new value,
// lower being better. A change inside the bound counts as unchanged
// only when both runs held still enough to tell: if either run's own
// rounds ranged wider than the bound, the two values straddle it and
// the honest answer is unresolved.
func verdict(base, cur metric, bound float64) (worse float64, word string) {
	if base.Value == 0 {
		if cur.Value == 0 {
			return 0, "unchanged"
		}
		return 0, "REGRESSION"
	}
	worse = (cur.Value - base.Value) / base.Value
	switch {
	case worse > bound:
		return worse, "REGRESSION"
	case max(base.Spread, cur.Spread) > bound:
		return worse, "unresolved"
	case worse < -bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareFiles prints, per workload and end-to-end metric, the new
// result against the baseline with the metric's bound applied. It
// returns the process exit code: 1 if any metric regressed, any
// workload is missing or failed its checks, or a file cannot be read.
func compareFiles(w io.Writer, baseFile, curFile string) int {
	base, err := loadResults(baseFile)
	if err == nil {
		var cur *results
		if cur, err = loadResults(curFile); err == nil {
			return compareResults(w, base, cur)
		}
	}
	fmt.Fprintln(w, "papistorm:", err)
	return 1
}

func compareResults(w io.Writer, base, cur *results) int {
	code := 0
	if base.Meta.Seconds != cur.Meta.Seconds || base.Meta.NProc != cur.Meta.NProc {
		fmt.Fprintf(w, "note: runs differ in shape (seconds %d vs %d, nproc %d vs %d); the bounds assume they do not\n",
			base.Meta.Seconds, cur.Meta.Seconds, base.Meta.NProc, cur.Meta.NProc)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tunit\tchange\tbound\tverdict")
	for _, sp := range specs {
		b, c := base.Workloads[sp.name], cur.Workloads[sp.name]
		if b == nil || c == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tMISSING\n", sp.name)
			code = 1
			continue
		}
		if c.Failed > 0 {
			fmt.Fprintf(tw, "%s\toutput checks\t%d\t%d\tfailed\t-\t0\tFAILED\n", sp.name, b.Failed, c.Failed)
			code = 1
		}
		for _, m := range endToEnd {
			worse, word := verdict(b.Metrics[m.name], c.Metrics[m.name], m.bound)
			if word == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%+.1f%%\t%.0f%%\t%s\n", sp.name, m.name,
				b.Metrics[m.name].Value, c.Metrics[m.name].Value, m.unit, 100*worse, 100*m.bound, word)
		}
	}
	tw.Flush()
	return code
}
