package wire

import (
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// The papid protocol: request/response over TCP, one Request per frame
// from the client, one Response per frame from the server. A connection
// that has issued SUBSCRIBE additionally receives asynchronous
// OpSnapshot, OpDelta and OpDerived responses interleaved with its
// request replies; clients distinguish them by the Op field. Frames
// are JSON lines — the codec a human can type — unless HELLO
// negotiated the binary codec (binary.go).
//
// A typical exchange (client lines prefixed >, server lines <):
//
//	> {"op":"HELLO","version":4}
//	< {"op":"HELLO","ok":true,"protocol":4,"platform":"linux-x86"}
//	> {"op":"CREATE_SESSION","platform":"aix-power3","events":["PAPI_FP_INS","PAPI_TOT_CYC"]}
//	< {"op":"CREATE_SESSION","ok":true,"session":1,"events":["PAPI_FP_INS","PAPI_TOT_CYC"]}
//	> {"op":"START","session":1}
//	< {"op":"START","ok":true,"session":1}
//	> {"op":"SUBSCRIBE","session":1}
//	< {"op":"SUBSCRIBE","ok":true,"session":1}
//	< {"op":"SNAPSHOT","ok":true,"session":1,"seq":1,"values":[420,9001],...}
//	> {"op":"STOP","session":1}
//	< {"op":"STOP","ok":true,"session":1,"values":[1260,27003]}
//	> {"op":"BYE"}
//	< {"op":"BYE","ok":true}

// ProtocolVersion is the one protocol papid speaks. A client announces
// it in HELLO (Request.Version) and the server echoes it in the reply
// (Response.Protocol); each side refuses a peer naming any other
// number, so nothing past the handshake is version-dependent. A HELLO
// naming no version, or no HELLO at all, is a hand-typed JSON session
// and is served as this version. Versions 1–3 (no QUERY; no binary
// codec, histograms or DERIVED; no filters, DELTA or trace IDs) had no
// peers outside this repository and are no longer spoken. Room to grow
// without a new number stays: JSON decoders ignore unknown fields, and
// the binary codec's presence bitmaps name exactly the fields sent.
const ProtocolVersion = 4

// Request operations.
const (
	OpHello        = "HELLO"          // handshake; no arguments
	OpCreate       = "CREATE_SESSION" // platform, events?, workload?, n?
	OpAddEvents    = "ADD_EVENTS"     // session, events
	OpStart        = "START"          // session
	OpRead         = "READ"           // session
	OpSubscribe    = "SUBSCRIBE"      // session | sessions/labels, events?, delta?, derive?
	OpPublish      = "PUBLISH"        // session, values, events?
	OpStop         = "STOP"           // session
	OpCloseSession = "CLOSE_SESSION"  // session
	OpQuery        = "QUERY"          // session, events?, from, to, step — tsdb history
	OpStats        = "STATS"          // no arguments
	OpBye          = "BYE"            // close the connection
)

// OpSnapshot marks asynchronous fan-out frames pushed to subscribers;
// it never appears as a request. For a delta-mode subscriber a full
// SNAPSHOT is a keyframe: it resets the subscriber's view and anchors
// every following DELTA frame until the next keyframe.
const OpSnapshot = "SNAPSHOT"

// OpDelta marks asynchronous delta frames pushed to subscribers that
// requested delta mode: Idx lists the
// counters whose values differ from the keyframe identified by Base,
// and Values carries their absolute current values (parallel slices,
// indices into the keyframe's Events order). Each delta is complete
// relative to its keyframe, so a dropped delta never corrupts client
// state — the next delta or keyframe fully supersedes it. Never
// appears as a request.
const OpDelta = "DELTA"

// OpDerived marks asynchronous derived-metric frames pushed to
// subscribers whose session has performance groups registered: Metrics
// names the derived values, DValues carries them (parallel slices),
// Units their display units, and Seq echoes the source snapshot's
// sequence number. Never appears as a request.
const OpDerived = "DERIVED"

// OpError marks server-originated error frames that do not correspond
// to a decodable request — e.g. the reply to a malformed line. The
// connection stays open; JSON-lines framing resynchronizes on the next
// newline.
const OpError = "ERROR"

// Request is one client frame.
type Request struct {
	Op       string   `json:"op"`
	Session  uint64   `json:"session,omitempty"`
	Platform string   `json:"platform,omitempty"`
	Events   []string `json:"events,omitempty"`
	// Workload names the synthetic program papid advances on each tick
	// of a started session (workload.ByName); empty selects a small
	// default, "none" creates a publish-only session that papid never
	// drives itself.
	Workload string  `json:"workload,omitempty"`
	N        int     `json:"n,omitempty"`      // workload size parameter
	Values   []int64 `json:"values,omitempty"` // PUBLISH payload
	Label    string  `json:"label,omitempty"`  // optional client name
	// Version is the client's ProtocolVersion, announced in HELLO; the
	// server refuses any other number (0, unannounced, is served as
	// ProtocolVersion).
	Version int `json:"version,omitempty"`
	// Codec, in a HELLO request, asks the server to switch the
	// connection to the named frame codec ("binary"); empty keeps the
	// JSON-lines default. A server that agrees echoes the codec in its
	// (still JSON-encoded) HELLO reply, and both sides switch every
	// subsequent frame to binary framing; a reply naming no codec leaves
	// the connection on JSON lines.
	Codec string `json:"codec,omitempty"`
	// QUERY range: [From, To) in µs with Step-wide output windows.
	// Step 0 returns raw samples; see tsdb.Query for the exact window
	// semantics.
	From int64 `json:"from,omitempty"`
	To   int64 `json:"to,omitempty"`
	Step int64 `json:"step,omitempty"`
	// Derive names performance groups. In a SUBSCRIBE it registers the
	// groups for per-tick evaluation on the session (the subscriber then
	// receives OpDerived frames); in a QUERY it switches the reply from
	// raw Series to Derived — the groups' formulas evaluated over the
	// history window.
	Derive []string `json:"derive,omitempty"`
	// Sessions, in a SUBSCRIBE with Session == 0, is a wildcard filter:
	// subscribe to every listed session that currently exists.
	Sessions []uint64 `json:"sessions,omitempty"`
	// Labels, in a SUBSCRIBE with Session == 0, is a wildcard filter by
	// session label: path.Match-style globs against the Label each
	// CREATE_SESSION recorded.
	Labels []string `json:"labels,omitempty"`
	// Delta, in a SUBSCRIBE, requests delta mode: the subscriber
	// receives a full SNAPSHOT keyframe first and periodically, and
	// compact DELTA frames in between carrying only the counters that
	// changed since the keyframe. (Events, on a SUBSCRIBE, narrows the
	// stream to the named counters; the same field names the events of a
	// CREATE_SESSION or PUBLISH.)
	Delta bool `json:"delta,omitempty"`
}

// DerivedPoint is one evaluated derived-metric value, anchored at the
// closing timestamp of the interval it summarizes (µs).
type DerivedPoint struct {
	Start int64   `json:"start"`
	Value float64 `json:"value"`
}

// DerivedSeries is one derived metric evaluated over a QUERY window.
type DerivedSeries struct {
	Metric string         `json:"metric"`
	Unit   string         `json:"unit,omitempty"`
	Points []DerivedPoint `json:"points"`
}

// Response is one server frame: the reply to a request (Op echoes the
// request) or an asynchronous snapshot (Op == OpSnapshot).
type Response struct {
	Op       string            `json:"op"`
	OK       bool              `json:"ok"`
	Error    string            `json:"error,omitempty"`
	Session  uint64            `json:"session,omitempty"`
	Platform string            `json:"platform,omitempty"`
	Events   []string          `json:"events,omitempty"`
	Values   []int64           `json:"values,omitempty"`
	RealUsec uint64            `json:"real_usec,omitempty"`
	Seq      uint64            `json:"seq,omitempty"`
	Protocol int               `json:"protocol,omitempty"`
	Source   string            `json:"source,omitempty"` // snapshot origin: "live" or "published"
	Stats    map[string]uint64 `json:"stats,omitempty"`
	// Hists carries the server's latency-histogram summaries in a
	// STATS reply, keyed compactly: "op/<OP>/<codec>" for per-op
	// wire latency, "tick" for fan-out tick duration, "tsdb/append"
	// and "tsdb/query" for the history store. Values are nanoseconds.
	Hists map[string]telemetry.Summary `json:"hists,omitempty"`
	// Series carries a QUERY reply: one entry per event, each holding
	// the downsampled min/max/sum/count/last buckets for the range.
	Series []tsdb.Series `json:"series,omitempty"`
	// Codec, in a HELLO reply, confirms the codec the server will
	// speak from the next frame on; empty means JSON lines.
	Codec string `json:"codec,omitempty"`
	// Metrics, Units and DValues are the parallel payload of an
	// OpDerived frame: derived-metric names, display units and values
	// for one tick.
	Metrics []string  `json:"metrics,omitempty"`
	Units   []string  `json:"units,omitempty"`
	DValues []float64 `json:"dvalues,omitempty"`
	// Derived carries a derive-mode QUERY reply: one series per metric
	// of the requested groups, evaluated over the history window.
	Derived []DerivedSeries `json:"derived,omitempty"`
	// Sessions, in the reply to a wildcard SUBSCRIBE, lists the session
	// IDs the filters matched at subscribe time.
	Sessions []uint64 `json:"sessions,omitempty"`
	// Idx and Base are the OpDelta payload: Idx lists the positions (in
	// the keyframe's Events order) of counters whose values differ from
	// the keyframe whose Seq equals Base; Values (parallel to Idx)
	// carries their absolute current values. A client whose last
	// keyframe's Seq is not Base has missed a keyframe and must discard
	// the delta and wait for the next keyframe (see DeltaTracker).
	Idx  []uint32 `json:"idx,omitempty"`
	Base uint64   `json:"base,omitempty"`
	// TraceID identifies the server-side trace of this request's
	// handling, set when papid runs the flight recorder. Rendered in hex
	// it keys /debug/trace?id= on papid's admin endpoint; the same ID
	// appears in SlowOp warn lines, so a slow reply, its log line and its
	// flight-recorder trace all link up.
	TraceID uint64 `json:"trace,omitempty"`
	// Slow, in a STATS reply, lists the server's most recent
	// SlowOp-threshold breaches with their trace IDs (newest first).
	Slow []SlowSample `json:"slow,omitempty"`
}

// SlowSample is one recent slow operation in a STATS reply: what ran,
// how long it took, and which retained trace shows where the time
// went.
type SlowSample struct {
	Op      string `json:"op"`
	Session uint64 `json:"session,omitempty"`
	NS      int64  `json:"ns"`
	TraceID uint64 `json:"trace,omitempty"`
}
