package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestHelloVersionMismatchRefused pins the server's one version check:
// a HELLO announcing any version but the server's own earns a wire
// ERROR naming both numbers, and the connection stays usable — the
// peer may announce again or carry on unannounced.
func TestHelloVersionMismatchRefused(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour})
	cl := dialT(t, addr)
	for _, v := range []int{3, wire.ProtocolVersion + 1} {
		resp, err := cl.Do(wire.Request{Op: wire.OpHello, Version: v, Codec: wire.CodecNameBinary})
		if err == nil {
			t.Fatalf("HELLO announcing %d accepted: %+v", v, resp)
		}
		for _, want := range []string{fmt.Sprint(v), fmt.Sprint(wire.ProtocolVersion)} {
			if !strings.Contains(resp.Error, want) {
				t.Errorf("HELLO announcing %d: error %q does not name %s", v, resp.Error, want)
			}
		}
		if resp.Codec != "" {
			t.Errorf("refused HELLO confirmed codec %q", resp.Codec)
		}
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpStats}); err != nil {
		t.Fatalf("connection unusable after a refused HELLO: %v", err)
	}
	for _, v := range []int{0, wire.ProtocolVersion} {
		resp, err := cl.Do(wire.Request{Op: wire.OpHello, Version: v})
		if err != nil || resp.Protocol != wire.ProtocolVersion {
			t.Errorf("HELLO announcing %d: %+v, %v", v, resp, err)
		}
	}
}

// TestEveryPeerServedAsCurrentProtocol: nothing past the handshake
// depends on what a peer announced. A peer that said HELLO with the
// current version, one that typed a bare HELLO, and one that sent none
// all get the full replies — STATS with histograms and slow samples,
// the trace ID on a traced server — and may use every SUBSCRIBE form.
func TestEveryPeerServedAsCurrentProtocol(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour,
		SlowOp: time.Nanosecond, TraceRing: 64})
	pubSession(t, dialT(t, addr), "peer")
	for _, peer := range []struct {
		name  string
		hello *wire.Request
	}{
		{"announced", &wire.Request{Op: wire.OpHello, Version: wire.ProtocolVersion}},
		{"bare HELLO", &wire.Request{Op: wire.OpHello}},
		{"no HELLO", nil},
	} {
		t.Run(peer.name, func(t *testing.T) {
			cl := dialT(t, addr)
			if peer.hello != nil {
				if _, err := cl.Do(*peer.hello); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Labels: []string{"peer"},
				Events: []string{"a"}, Delta: true}); err != nil {
				t.Fatalf("filtered delta wildcard SUBSCRIBE: %v", err)
			}
			resp, err := cl.Do(wire.Request{Op: wire.OpStats})
			if err != nil {
				t.Fatal(err)
			}
			if s, ok := resp.Hists["op/SUBSCRIBE/json"]; !ok || s.Count == 0 || s.Max < s.Min {
				t.Errorf("STATS hists lack a consistent op/SUBSCRIBE/json: %v", resp.Hists)
			}
			if len(resp.Slow) == 0 {
				t.Error("STATS reply has no slow samples on a server where every op is slow")
			}
			if resp.TraceID == 0 {
				t.Error("reply on a tracing server carries no trace ID")
			}
		})
	}
}
