package tracing

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"time"
)

// TracezHandler serves the /tracez flight-recorder view: the retained
// traces, slowest first. HTML by default, JSON with ?format=json (the
// form perfometer -tracez consumes).
func TracezHandler(tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sums := tr.Summaries()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(struct {
				Stats  Stats     `json:"stats"`
				Traces []Summary `json:"traces"`
			}{tr.TracerStats(), sums})
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<html><head><title>papid /tracez</title></head><body><h1>tracez</h1>")
		st := tr.TracerStats()
		if st.Ring == 0 {
			fmt.Fprintf(w, "<p>tracing disabled (-trace-ring 0)</p></body></html>")
			return
		}
		fmt.Fprintf(w, "<p>%d started, %d retained (%d slow, %d err) · ring %d · slow threshold %s</p>",
			st.Started, st.Retained, st.KeptSlow, st.KeptErr, st.Ring,
			time.Duration(st.SlowNS))
		fmt.Fprintf(w, "<table border=1 cellpadding=4><tr><th>trace</th><th>kind</th><th>name</th><th>duration</th><th>spans</th><th>kept</th><th>err</th></tr>")
		for _, s := range sums {
			fmt.Fprintf(w, "<tr><td><a href=\"/debug/trace?id=%s\">%s</a></td><td>%s</td><td>%s</td><td align=right>%s</td><td align=right>%d</td><td>%s</td><td>%s</td></tr>",
				s.ID, s.ID, html.EscapeString(s.Kind), html.EscapeString(s.Name),
				FormatDur(s.DurNS), s.Spans, s.Retained, html.EscapeString(s.Err))
		}
		fmt.Fprintf(w, "</table></body></html>")
	})
}

// TraceHandler serves /debug/trace?id=<hex>: the full span tree of
// one retained trace. Native JSON by default; ?format=chrome returns
// Chrome trace-event JSON loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
func TraceHandler(tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := ParseID(r.URL.Query().Get("id"))
		if !ok {
			http.Error(w, "trace: bad or missing ?id= (hex trace ID)", http.StatusBadRequest)
			return
		}
		t := tr.Get(id)
		if t == nil {
			http.Error(w, "trace: not retained (evicted from ring, or never kept)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			data, err := t.ChromeJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition",
				fmt.Sprintf("attachment; filename=%q", "trace-"+FormatID(id)+".json"))
			w.Write(data)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(t.View())
	})
}
