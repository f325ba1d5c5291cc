package perfometer

import (
	"fmt"
	"io"
	"time"

	"repro/internal/telemetry/tracing"
)

// TracezDoc mirrors the JSON document papid's /tracez?format=json
// endpoint serves: the flight recorder's lifetime stats plus the
// retained traces, slowest first.
type TracezDoc struct {
	Stats  tracing.Stats     `json:"stats"`
	Traces []tracing.Summary `json:"traces"`
}

// RenderTracez prints a remote flight-recorder view — the terminal
// twin of the /tracez HTML table. Each row is one retained trace; the
// ID column is what /debug/trace?id= (and ?format=chrome for
// Perfetto) takes.
func RenderTracez(w io.Writer, doc TracezDoc) {
	st := doc.Stats
	if st.Ring == 0 {
		fmt.Fprintln(w, "tracing disabled (papid -trace-ring 0)")
		return
	}
	fmt.Fprintf(w, "flight recorder: %d started, %d retained (%d slow, %d err), ring %d, slow threshold %s\n",
		st.Started, st.Retained, st.KeptSlow, st.KeptErr, st.Ring,
		time.Duration(st.SlowNS))
	if len(doc.Traces) == 0 {
		fmt.Fprintln(w, "no retained traces yet")
		return
	}
	fmt.Fprintf(w, "%-16s %-8s %-14s %12s %6s %-8s %s\n",
		"trace", "kind", "name", "duration", "spans", "kept", "err")
	for _, t := range doc.Traces {
		fmt.Fprintf(w, "%-16s %-8s %-14s %12s %6d %-8s %s\n",
			t.ID, t.Kind, t.Name, tracing.FormatDur(t.DurNS), t.Spans, t.Retained, t.Err)
	}
}
