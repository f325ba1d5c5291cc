package perfometer

import (
	"strings"
	"testing"

	"repro/internal/telemetry/tracing"
)

func TestRenderTracez(t *testing.T) {
	var sb strings.Builder
	RenderTracez(&sb, TracezDoc{
		Stats: tracing.Stats{Started: 100, Retained: 3, KeptSlow: 1, KeptErr: 1,
			Ring: 64, SlowNS: 250_000_000},
		Traces: []tracing.Summary{
			{ID: "00000000000000ff", Kind: "tick", Name: "tick",
				DurNS: 3_000_000, Spans: 40, Retained: "slow"},
			{ID: "0000000000000a01", Kind: "request", Name: "PUBLISH",
				DurNS: 900_000, Spans: 5, Retained: "error", Err: "bad payload"},
		},
	})
	out := sb.String()
	for _, want := range []string{
		"100 started", "3 retained", "ring 64", "250ms",
		"00000000000000ff", "tick", "slow",
		"0000000000000a01", "PUBLISH", "error", "bad payload",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tracez view lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "sampling") {
		t.Errorf("tracez view still reports head sampling:\n%s", out)
	}
	// Slowest first, as served: the 3ms tick row precedes the 900µs
	// request row.
	if strings.Index(out, "00000000000000ff") > strings.Index(out, "0000000000000a01") {
		t.Errorf("rows not slowest-first:\n%s", out)
	}
}

func TestRenderTracezDisabled(t *testing.T) {
	var sb strings.Builder
	RenderTracez(&sb, TracezDoc{})
	if !strings.Contains(sb.String(), "tracing disabled") {
		t.Errorf("no hint for -trace-ring 0 servers:\n%s", sb.String())
	}
}

func TestRenderTracezEmptyRing(t *testing.T) {
	var sb strings.Builder
	RenderTracez(&sb, TracezDoc{Stats: tracing.Stats{Ring: 64}})
	if !strings.Contains(sb.String(), "no retained traces yet") {
		t.Errorf("no hint for an empty ring:\n%s", sb.String())
	}
}
