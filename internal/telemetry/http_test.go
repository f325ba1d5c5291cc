package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// noStatus is the /statusz document of tests that never fetch it.
func noStatus() any { return nil }

func TestHandlerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter(Opts{Name: "papid_http_test_total", Help: "test counter"})
	c.Add(3)
	rec := httptest.NewRecorder()
	HandlerWith(reg, noStatus, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "papid_http_test_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", rec.Body.String())
	}
}

func TestHandlerStatuszCustom(t *testing.T) {
	reg := NewRegistry()
	statusz := func() any {
		return map[string]any{"daemon": "papid", "build": ReadBuild()}
	}
	rec := httptest.NewRecorder()
	HandlerWith(reg, statusz, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/statusz content-type = %q", ct)
	}
	var doc struct {
		Daemon string    `json:"daemon"`
		Build  BuildInfo `json:"build"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Daemon != "papid" {
		t.Fatalf("custom statusz not served: %s", rec.Body.String())
	}
	if doc.Build.OS != runtime.GOOS || doc.Build.Arch != runtime.GOARCH {
		t.Fatalf("build os/arch = %s/%s, want %s/%s",
			doc.Build.OS, doc.Build.Arch, runtime.GOOS, runtime.GOARCH)
	}
}

func TestHandlerIndexLinks(t *testing.T) {
	reg := NewRegistry()
	rec := httptest.NewRecorder()
	HandlerWith(reg, noStatus, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("index content-type = %q", ct)
	}
	body := rec.Body.String()
	for _, link := range []string{`href="/metrics"`, `href="/statusz"`, `href="/debug/pprof/"`} {
		if !strings.Contains(body, link) {
			t.Errorf("index missing %s:\n%s", link, body)
		}
	}
	if strings.Contains(body, "/tracez") {
		t.Error("index links /tracez without an extra handler mounted")
	}

	// Unknown paths 404 rather than serving the index.
	rec = httptest.NewRecorder()
	HandlerWith(reg, noStatus, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/nonesuch", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /nonesuch = %d, want 404", rec.Code)
	}
}

func TestHandlerWithExtras(t *testing.T) {
	reg := NewRegistry()
	called := false
	extra := map[string]http.Handler{
		"/tracez": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			called = true
			w.Write([]byte("tracez here"))
		}),
	}
	h := HandlerWith(reg, noStatus, extra)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), `href="/tracez"`) {
		t.Fatalf("index missing extra link:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if !called || rec.Body.String() != "tracez here" {
		t.Fatal("extra handler not mounted")
	}
}

func TestReadBuild(t *testing.T) {
	bi := ReadBuild()
	if bi.GoVersion == "" || bi.OS == "" || bi.Arch == "" || bi.GOMAXPROCS < 1 {
		t.Fatalf("incomplete build info: %+v", bi)
	}
	// Under `go test` ReadBuildInfo is available, so the module path
	// should be populated.
	if bi.Path == "" {
		t.Fatalf("module path missing: %+v", bi)
	}
}
