// The admin HTTP surface: /metrics (Prometheus text), /statusz (JSON),
// and /debug/pprof (the runtime profiler) on one mux. papid mounts it
// on a dedicated -http listener, kept off the wire-protocol port so a
// scraper can never confuse a JSON-lines peer and vice versa.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// processStart anchors BuildInfo.Uptime. Package init is close enough
// to process start for an admin page.
var processStart = time.Now()

// BuildInfo identifies the running binary: what was built, from which
// revision, and how long it has been up. It answers the 3am question
// "what is actually deployed here?" that the metrics alone
// could not.
type BuildInfo struct {
	GoVersion  string    `json:"go_version"`
	Path       string    `json:"path,omitempty"`
	Version    string    `json:"version,omitempty"`
	VCSRev     string    `json:"vcs_revision,omitempty"`
	VCSTime    string    `json:"vcs_time,omitempty"`
	VCSDirty   bool      `json:"vcs_dirty,omitempty"`
	OS         string    `json:"os"`
	Arch       string    `json:"arch"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Start      time.Time `json:"start"`
	Uptime     string    `json:"uptime"`
}

// ReadBuild collects the binary's build identity from
// runtime/debug.ReadBuildInfo plus the runtime.
func ReadBuild() BuildInfo {
	bi := BuildInfo{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Start:      processStart,
		Uptime:     time.Since(processStart).Round(time.Second).String(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		bi.Path = info.Main.Path
		bi.Version = info.Main.Version
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				bi.VCSRev = s.Value
			case "vcs.time":
				bi.VCSTime = s.Value
			case "vcs.modified":
				bi.VCSDirty = s.Value == "true"
			}
		}
	}
	return bi
}

// HandlerWith returns the observability mux: /metrics is the registry
// as Prometheus text, /statusz the JSON document statusz returns (the
// daemon's build identity, its Registry.Stats map and its histogram
// summaries — the one place the registry is embedded in it), plus
// extra handlers mounted by path (papid adds the /tracez flight
// recorder and /debug/trace export), which the index page links.
//
// The pprof handlers are mounted explicitly rather than through
// net/http/pprof's DefaultServeMux side effect, so importing telemetry
// never silently adds debug endpoints to an unrelated mux.
func HandlerWith(reg *Registry, statusz func() any, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(statusz())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	extraPaths := make([]string, 0, len(extra))
	for path, h := range extra {
		mux.Handle(path, h)
		extraPaths = append(extraPaths, path)
	}
	sort.Strings(extraPaths)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(`<html><body><h1>papid</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/statusz">/statusz</a> — JSON status document</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — runtime profiles</li>
`))
		for _, path := range extraPaths {
			fmt.Fprintf(w, "<li><a href=%q>%s</a></li>\n", path, path)
		}
		w.Write([]byte(`</ul></body></html>`))
	})
	return mux
}
