// Logging and report glue shared by papid and its clients: the discard
// logger embedded servers default to, and the quantile table every tool
// prints histogram summaries with.
package telemetry

import (
	"fmt"
	"log/slog"
	"sort"
	"strings"
)

// Discard returns a logger that drops everything — the default for
// embedded servers that configured no sink.
func Discard() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}

// FormatSummaryTable renders keyed histogram summaries as an aligned
// human-readable table, durations in microseconds — shared by
// `perfometer -stats`, `papirun -serve-stats`, and papid's shutdown
// report. Keys are emitted sorted; filter selects which keys appear
// (nil keeps all).
func FormatSummaryTable(hists map[string]Summary, filter func(key string) bool) string {
	keys := make([]string, 0, len(hists))
	for k := range hists {
		if filter == nil || filter(k) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %10s %10s %10s %10s %10s\n",
		"", "count", "p50(µs)", "p90(µs)", "p99(µs)", "max(µs)")
	for _, k := range keys {
		s := hists[k]
		fmt.Fprintf(&sb, "%-28s %10d %10.1f %10.1f %10.1f %10.1f\n",
			k, s.Count, float64(s.P50)/1e3, float64(s.P90)/1e3,
			float64(s.P99)/1e3, float64(s.Max)/1e3)
	}
	return sb.String()
}
