package perfometer

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

func TestRenderStats(t *testing.T) {
	var sb strings.Builder
	RenderStats(&sb,
		map[string]uint64{"ticks": 42, "evictions": 1,
			"ticks_skipped": 7, "encode_failures": 3},
		map[string]telemetry.Summary{
			"op/READ/json":  {Count: 10, P50: 30_000, P90: 60_000, P99: 90_000, Max: 95_000},
			"op/STATS/json": {Count: 2, P50: 10_000, P90: 12_000, P99: 12_000, Max: 12_500},
			"tick":          {Count: 5, P50: 1_000, P90: 2_000, P99: 2_000, Max: 2_100},
			"tsdb/append":   {Count: 5, P50: 500, P90: 800, P99: 800, Max: 900},
		})
	out := sb.String()
	// Counters come first, sorted. ticks_skipped and encode_failures
	// must reach the remote table like any other counter.
	if !strings.Contains(out, "evictions") || !strings.Contains(out, "42") {
		t.Errorf("counters missing:\n%s", out)
	}
	if !strings.Contains(out, "ticks_skipped") || !strings.Contains(out, "7") ||
		!strings.Contains(out, "encode_failures") || !strings.Contains(out, "3") {
		t.Errorf("ticks_skipped/encode_failures not rendered:\n%s", out)
	}
	if strings.Index(out, "evictions") > strings.Index(out, "ticks") {
		t.Errorf("counters not sorted:\n%s", out)
	}
	// Per-op table and internal-stage table are split.
	opIdx := strings.Index(out, "per-op wire latency:")
	inIdx := strings.Index(out, "internal stages:")
	if opIdx < 0 || inIdx < 0 || opIdx > inIdx {
		t.Fatalf("section order wrong:\n%s", out)
	}
	if !strings.Contains(out[opIdx:inIdx], "op/READ/json") ||
		strings.Contains(out[opIdx:inIdx], "tick") {
		t.Errorf("per-op section contents wrong:\n%s", out)
	}
	if !strings.Contains(out[inIdx:], "tsdb/append") {
		t.Errorf("internal section lacks tsdb/append:\n%s", out)
	}
	// µs scaling: 30_000ns p50 renders as 30.0.
	if !strings.Contains(out, "30.0") {
		t.Errorf("missing µs-scaled quantile:\n%s", out)
	}
}

func TestRenderSlow(t *testing.T) {
	var sb strings.Builder
	RenderSlow(&sb, nil) // a clean run: silent
	if sb.Len() != 0 {
		t.Errorf("RenderSlow(nil) printed:\n%s", sb.String())
	}
	RenderSlow(&sb, []wire.SlowSample{
		{Op: "QUERY", Session: 3, NS: 400_000_000, TraceID: 0xbeef},
		{Op: "PUBLISH", Session: 1, NS: 300_000_000}, // untraced server
	})
	out := sb.String()
	for _, want := range []string{
		"recent slow ops", "QUERY", "session=3", "400ms",
		"trace=000000000000beef", "PUBLISH", "300ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-op table lacks %q:\n%s", want, out)
		}
	}
	// The untraced sample must not render a zero trace ID.
	if strings.Count(out, "trace=") != 1 {
		t.Errorf("zero trace ID rendered:\n%s", out)
	}
}
