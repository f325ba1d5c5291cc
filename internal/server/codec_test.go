package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

// dialBinary dials with the binary codec preference and performs the
// handshake, failing the test unless the server confirmed the upgrade.
func dialBinary(t testing.TB, addr string) *Client {
	t.Helper()
	cl, err := DialRetry(addr, RetryConfig{Timeout: 30 * time.Second, PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	hello, err := cl.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if hello.Codec != wire.CodecNameBinary || cl.Codec() != wire.CodecBinary {
		t.Fatalf("binary upgrade not negotiated: reply codec %q, client codec %s",
			hello.Codec, cl.Codec())
	}
	return cl
}

// TestBinaryNegotiationEndToEnd drives the whole binary upgrade path: a
// JSON HELLO asking for binary, a confirming reply, then every papid
// op — create/start/read, a subscription snapshot stream, QUERY over
// accumulated history, STATS — on binary frames, with the per-codec
// byte and frame counters proving which codec carried the traffic.
func TestBinaryNegotiationEndToEnd(t *testing.T) {
	fk := clock.NewFake(time.Unix(1_700_000_000, 0))
	srv, addr := startServer(t, Config{TickInterval: time.Hour, clock: fk})
	cl := dialBinary(t, addr)

	created, err := cl.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC", "PAPI_FP_INS"}, Workload: "dot", N: 256})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Session
	if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: id}); err != nil {
		t.Fatal(err)
	}

	// A second binary connection subscribes and must see a live
	// snapshot stream in binary frames.
	sub := dialBinary(t, addr)
	if _, err := sub.Do(wire.Request{Op: wire.OpSubscribe, Session: id}); err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		fk.Advance(time.Millisecond)
		srv.tick()
		snap, err := sub.Next()
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if snap.Op != wire.OpSnapshot || snap.Session != id {
			t.Fatalf("snapshot %d: %+v", i, snap)
		}
		if snap.Seq <= lastSeq {
			t.Fatalf("snapshot %d: seq %d after %d", i, snap.Seq, lastSeq)
		}
		if len(snap.Values) != 2 {
			t.Fatalf("snapshot %d: values %v", i, snap.Values)
		}
		lastSeq = snap.Seq
	}

	read, err := cl.Do(wire.Request{Op: wire.OpRead, Session: id})
	if err != nil {
		t.Fatal(err)
	}
	if len(read.Values) != 2 {
		t.Fatalf("READ over binary: %+v", read)
	}

	// The ticks persisted history; a QUERY result (the other
	// payload-heavy frame) must round-trip its series in binary.
	q, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: id,
		From: 0, To: 1<<63 - 1, Step: 0})
	if err != nil || len(q.Series) != 2 || len(q.Series[0].Buckets) != 3 {
		t.Fatalf("QUERY after 3 ticks: %+v, %v; want 2 series of 3 samples", q, err)
	}

	st, err := cl.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats["frames_sent_binary"] == 0 || st.Stats["bytes_sent_binary"] == 0 {
		t.Errorf("binary counters empty: %v", st.Stats)
	}
	// Each connection's HELLO reply went out before its upgrade, so
	// JSON counters must be non-zero too — and tiny next to binary.
	if st.Stats["frames_sent_json"] == 0 {
		t.Errorf("JSON HELLO replies not counted: %v", st.Stats)
	}

	if stat(t, srv, "frames_sent_binary") == 0 {
		t.Errorf("Stats() binary frame counter: %v", srv.Stats())
	}
}

// TestRawJSONPeerNeverSeesBinary: a plain JSON-lines peer that never
// mentions codecs — or a version: the HELLO is the hand-typed one —
// is served in JSON throughout: every reply byte is a parseable JSON
// line and the binary counters stay at zero.
func TestRawJSONPeerNeverSeesBinary(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Millisecond})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(nc)
	roundTrip := func(reqLine string) wire.Response {
		t.Helper()
		if _, err := fmt.Fprintln(nc, reqLine); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := json.Unmarshal(bytes.TrimSpace(line), &resp); err != nil {
			t.Fatalf("reply %q is not a JSON line: %v", line, err)
		}
		return resp
	}

	hello := roundTrip(`{"op":"HELLO"}`)
	if !hello.OK || hello.Codec != "" || hello.Protocol != wire.ProtocolVersion {
		t.Fatalf("HELLO reply: %+v", hello)
	}
	created := roundTrip(`{"op":"CREATE_SESSION","events":["PAPI_TOT_CYC"],"workload":"dot","n":64}`)
	if !created.OK {
		t.Fatalf("create: %+v", created)
	}
	if resp := roundTrip(fmt.Sprintf(`{"op":"START","session":%d}`, created.Session)); !resp.OK {
		t.Fatalf("start: %+v", resp)
	}
	if resp := roundTrip(fmt.Sprintf(`{"op":"READ","session":%d}`, created.Session)); !resp.OK || len(resp.Values) != 1 {
		t.Fatalf("read: %+v", resp)
	}

	st := srv.Stats()
	if stat(t, srv, "frames_sent_binary") != 0 || stat(t, srv, "bytes_sent_binary") != 0 {
		t.Errorf("binary frames sent to a JSON-only client: %+v", st)
	}
	if stat(t, srv, "frames_sent_json") == 0 || stat(t, srv, "bytes_sent_json") == 0 {
		t.Errorf("JSON counters empty: %+v", st)
	}
}

// TestHelloAfterSubscribeStaysJSON: the upgrade window closes once a
// connection subscribes — a late HELLO must not flip the codec under a
// concurrent snapshot stream.
func TestHelloAfterSubscribeStaysJSON(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Millisecond})
	cl := dialT(t, addr)
	created, err := cl.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: created.Session}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Session: created.Session}); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(wire.Request{Op: wire.OpHello,
		Version: wire.ProtocolVersion, Codec: wire.CodecNameBinary})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Codec != "" {
		t.Fatalf("HELLO after SUBSCRIBE confirmed codec %q", resp.Codec)
	}
}

// jsonOnlyServer is a minimal JSON-lines responder that answers every
// request OK, announces the given protocol version and never confirms
// a codec.
func jsonOnlyServer(t *testing.T, protocol int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		dec := wire.NewDecoder(nc)
		enc := wire.NewEncoder(nc)
		for {
			var req wire.Request
			if err := dec.Decode(&req); err != nil {
				return
			}
			resp := wire.Response{Op: req.Op, OK: true, Protocol: protocol}
			if req.Op == wire.OpRead {
				resp.Values = []int64{42}
			}
			if err := enc.Encode(&resp); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestClientStaysJSONWhenReplyNamesNoCodec: a PreferBinary client whose
// HELLO reply confirms no codec must transparently stay on JSON.
func TestClientStaysJSONWhenReplyNamesNoCodec(t *testing.T) {
	cl, err := DialRetry(jsonOnlyServer(t, wire.ProtocolVersion),
		RetryConfig{Timeout: 10 * time.Second, PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hello, err := cl.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if hello.Codec != "" || cl.Codec() != wire.CodecJSON {
		t.Fatalf("client upgraded against a JSON-only server: reply %+v, codec %s",
			hello, cl.Codec())
	}
	read, err := cl.Do(wire.Request{Op: wire.OpRead})
	if err != nil || len(read.Values) != 1 || read.Values[0] != 42 {
		t.Fatalf("READ on the fallback path: %+v, %v", read, err)
	}
}

// TestClientRefusesOtherProtocol: the client's one version check — a
// server whose HELLO reply names any protocol but this client's is an
// error from Hello, and from the reconnecting client's dial.
func TestClientRefusesOtherProtocol(t *testing.T) {
	cl, err := DialRetry(jsonOnlyServer(t, 3), RetryConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Hello()
	if err == nil || !strings.Contains(err.Error(), "protocol 3") ||
		!strings.Contains(err.Error(), fmt.Sprint(wire.ProtocolVersion)) {
		t.Fatalf("Hello against a protocol-3 server: err %v, want both versions named", err)
	}
	if IsTransport(err) {
		t.Errorf("version mismatch reported as a transport failure: %v", err)
	}
	if _, err := DialReconn(jsonOnlyServer(t, 3), RetryConfig{Timeout: 10 * time.Second}); err == nil {
		t.Error("DialReconn accepted a protocol-3 server")
	}
}

// TestReconnClientBinaryReplay: the reconnecting client re-negotiates
// binary on every redial, and a replayable request issued across a
// severed connection lands on a freshly upgraded stream.
func TestReconnClientBinaryReplay(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour})
	rc, err := DialReconn(addr, RetryConfig{Timeout: 30 * time.Second, PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Hello().Codec != wire.CodecNameBinary {
		t.Fatalf("initial handshake: %+v", rc.Hello())
	}

	created, err := rc.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Do(wire.Request{Op: wire.OpStart, Session: created.Session}); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Do(wire.Request{Op: wire.OpRead, Session: created.Session}); err != nil {
		t.Fatal(err)
	}

	rc.cl.nc.Close() // sever mid-life; the next Do must redial
	read, err := rc.Do(wire.Request{Op: wire.OpRead, Session: created.Session})
	if err != nil {
		t.Fatalf("READ across reconnect: %v", err)
	}
	if len(read.Values) != 1 {
		t.Fatalf("replayed READ: %+v", read)
	}
	if rc.Reconnects != 1 {
		t.Errorf("reconnects = %d, want 1", rc.Reconnects)
	}
	if rc.cl.Codec() != wire.CodecBinary || rc.Hello().Codec != wire.CodecNameBinary {
		t.Errorf("binary not re-negotiated after redial: codec %s, hello %+v",
			rc.cl.Codec(), rc.Hello())
	}
}

// TestBinaryMidFrameCutEviction: a binary peer cut mid-frame leaves
// the server with a truncated length-prefixed frame — a fatal framing
// error. The server must evict that connection cleanly (one ERROR
// attempt, counted eviction) while a healthy binary client on the
// same server keeps working.
func TestBinaryMidFrameCutEviction(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour})
	healthy := dialBinary(t, addr)

	// Handshake in JSON by hand so the cut can be placed precisely:
	// let the HELLO line through, then sever two bytes into the first
	// binary frame.
	helloLine := fmt.Sprintf(`{"op":"HELLO","version":%d,"codec":"binary"}`, wire.ProtocolVersion) + "\n"
	frame, err := wire.AppendFrame(nil, wire.CodecBinary,
		&wire.Request{Op: wire.OpCreate, Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) < 4 {
		t.Fatalf("binary frame implausibly short: %d bytes", len(frame))
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := faultnet.WrapConn(nc, faultnet.Faults{CutAfter: int64(len(helloLine) + 2)})
	defer fc.Close()
	fc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fc.Write([]byte(helloLine)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(fc)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var hello wire.Response
	if err := json.Unmarshal(bytes.TrimSpace(line), &hello); err != nil {
		t.Fatalf("hello reply %q: %v", line, err)
	}
	if hello.Codec != wire.CodecNameBinary {
		t.Fatalf("no upgrade: %+v", hello)
	}
	if _, err := fc.Write(frame); err == nil {
		t.Fatal("faultnet cut never fired")
	}

	// The server sees EOF two bytes into a promised frame: fatal. It
	// must count an eviction without wedging anything else.
	deadline := time.Now().Add(5 * time.Second)
	for stat(t, srv, "evictions") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mid-frame cut never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := healthy.Do(wire.Request{Op: wire.OpStats}); err != nil {
		t.Fatalf("healthy client after neighbor eviction: %v", err)
	}
}

// TestBinaryGarbagePayloadAnsweredNotEvicted: a recoverable binary
// error (bad payload, intact framing) gets an ERROR reply and the
// connection lives on — parity with the JSON resync behavior.
func TestBinaryGarbagePayloadAnsweredNotEvicted(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour})
	cl := dialBinary(t, addr)

	// Reach under the client abstraction to inject a framed-but-bogus
	// payload, then decode the server's answer with the same Decoder
	// the client uses.
	raw := []byte{4, 0xff, 0xff, 0xff, 0xff} // prefix 4, then impossible field bits
	if _, err := cl.nc.Write(raw); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Next()
	if err != nil {
		t.Fatalf("ERROR frame after garbage payload: %v", err)
	}
	if resp.OK || resp.Op != wire.OpError {
		t.Fatalf("reply to garbage payload: %+v", resp)
	}
	if got := stat(t, srv, "resyncs"); got == 0 {
		t.Error("recoverable binary error not counted as a resync")
	}
	// The stream recovered: a real request on the same connection works.
	if _, err := cl.Do(wire.Request{Op: wire.OpStats}); err != nil {
		t.Fatalf("request after recoverable error: %v", err)
	}
	if stat(t, srv, "evictions") != 0 {
		t.Error("recoverable error evicted the connection")
	}
}

// TestCodecStringNames pins the negotiation token spelling.
func TestCodecStringNames(t *testing.T) {
	if wire.CodecJSON.String() != "json" || wire.CodecBinary.String() != wire.CodecNameBinary {
		t.Fatalf("codec names: %s, %s", wire.CodecJSON, wire.CodecBinary)
	}
	if !strings.EqualFold(wire.CodecNameBinary, "binary") {
		t.Fatalf("negotiation token: %q", wire.CodecNameBinary)
	}
}

// TestJSONFramesTakeTheFastPath: every frame a tick fans out and a
// PUBLISH ack are written by wire.AppendJSON, not json.Marshal. Each JSON
// frame is decoded and handed back to AppendJSON, which must take it and
// reproduce the frame byte for byte — so the server builds no per-tick
// shape that falls back to reflection.
func TestJSONFramesTakeTheFastPath(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour, Groups: []string{"ipc"}, KeyframeEvery: 3})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Platform: "aix-power3",
		Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_FP_INS"}, Workload: "dot", N: 8})
	if !created.OK {
		t.Fatal(created.Error)
	}
	if r := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !r.OK {
		t.Fatal(r.Error)
	}
	sess, _ := srv.reg.get(created.Session)
	broadcast, projecting, delta := testConn(srv, 64), testConn(srv, 64), testConn(srv, 64)
	broadcast.follow(t, sess, nil, false)
	projecting.follow(t, sess, []string{"PAPI_TOT_CYC"}, false)
	delta.follow(t, sess, nil, true)
	for i := 0; i < 6; i++ {
		srv.tick()
	}
	published := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	ack := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: published.Session,
		Events: []string{"PAPI_TOT_CYC"}, Values: []int64{42}})
	if !ack.OK {
		t.Fatal(ack.Error)
	}
	ackFrame, err := wire.AppendResponse(nil, wire.CodecJSON, &ack)
	if err != nil {
		t.Fatal(err)
	}
	frames := map[*conn][]string{broadcast: broadcast.popAll(), projecting: projecting.popAll(),
		delta: delta.popAll(), nil: {string(ackFrame)}}
	for _, tc := range []struct {
		name string
		c    *conn
		op   string
	}{
		{"session.snapshot()", broadcast, wire.OpSnapshot},
		{"viewState.projected", projecting, wire.OpSnapshot},
		{"keyframe (viewState.projected)", delta, wire.OpSnapshot},
		{"DELTA (fanoutView)", delta, wire.OpDelta},
		{"DERIVED (fanoutDerived)", broadcast, wire.OpDerived},
		{"PUBLISH ack", nil, wire.OpPublish},
	} {
		n := 0
		for _, frame := range frames[tc.c] {
			var r wire.Response
			if err := json.Unmarshal([]byte(frame), &r); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if r.Op != tc.op {
				continue
			}
			n++
			if fast, ok := wire.AppendJSON(nil, &r); !ok || string(fast)+"\n" != frame {
				t.Errorf("%s: frame %q falls back to json.Marshal (fast path took it: %v, wrote %q)",
					tc.name, frame, ok, fast)
			}
		}
		if n == 0 {
			t.Errorf("%s: no %s frame to check", tc.name, tc.op)
		}
	}
}
