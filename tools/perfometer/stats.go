package perfometer

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
)

// RenderStats prints a papid STATS reply: the lifetime counter map,
// then the latency-quantile tables for the wire ops, fan-out tick, and
// tsdb.
// Per-op keys arrive as "op/<OP>/<codec>"; the single-word keys
// ("tick", "tsdb/append", "tsdb/query") are internal stages.
func RenderStats(w io.Writer, stats map[string]uint64, hists map[string]telemetry.Summary) {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "counters:")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-24s %d\n", k, stats[k])
	}
	if t := telemetry.FormatSummaryTable(hists, func(k string) bool {
		return strings.HasPrefix(k, "op/")
	}); t != "" {
		fmt.Fprintf(w, "per-op wire latency:\n%s", t)
	}
	if t := telemetry.FormatSummaryTable(hists, func(k string) bool {
		return !strings.HasPrefix(k, "op/")
	}); t != "" {
		fmt.Fprintf(w, "internal stages:\n%s", t)
	}
}

// RenderSlow prints the server's recent SlowOp breaches (STATS
// resp.Slow), newest first. When the server runs the flight recorder
// each sample carries the trace ID its warn line logged — the handle
// /debug/trace?id= (or perfometer -tracez) takes. Silent on a clean
// run.
func RenderSlow(w io.Writer, slow []wire.SlowSample) {
	if len(slow) == 0 {
		return
	}
	fmt.Fprintln(w, "recent slow ops (newest first):")
	for _, s := range slow {
		fmt.Fprintf(w, "  %-12s session=%-6d %12s", s.Op, s.Session, time.Duration(s.NS))
		if s.TraceID != 0 {
			fmt.Fprintf(w, "  trace=%s", tracing.FormatID(s.TraceID))
		}
		fmt.Fprintln(w)
	}
}
