package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// FuzzDecode feeds arbitrary byte streams through the frame decoder.
// Properties: Decode never panics, every error is either a
// MalformedFrameError or an io error, and a malformed line never
// poisons the stream — a well-formed frame appended after the fuzz
// input must still decode.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"op":"HELLO"}` + "\n"))
	f.Add([]byte(`{"op":"CREATE_SESSION","events":["PAPI_TOT_CYC"],"n":8}` + "\n"))
	f.Add([]byte(`{"op":"QUERY","session":1,"from":0,"to":100,"step":10}` + "\n"))
	f.Add([]byte(`{"op":"QUERY","session":1,"to":100,"step":10,"derive":["ipc","l2miss"]}` + "\n"))
	f.Add([]byte(`{"op":"HELLO"`))           // truncated mid-object
	f.Add([]byte(`{"op":1234}` + "\n"))      // wrong field type
	f.Add([]byte("not json at all\n"))       // garbage line
	f.Add([]byte("\n\n\n"))                  // blank lines
	f.Add([]byte("{}\n{\n}\nnull\n[1,2]\n")) // mixed shapes
	f.Add([]byte(`{"values":[9223372036854775807,-1]}` + "\n"))
	f.Add(bytes.Repeat([]byte(`{"op":"x"}`+"\n"), 64))

	sentinel := `{"op":"AFTER_FUZZ","session":77}` + "\n"
	f.Fuzz(func(t *testing.T, data []byte) {
		// Ensure the fuzz payload ends at a frame boundary so the
		// sentinel sits on its own line.
		stream := append(append([]byte(nil), data...), '\n')
		stream = append(stream, sentinel...)
		dec := NewDecoder(bytes.NewReader(stream))
		sawSentinel := false
		for i := 0; i < len(stream)+2; i++ { // bounded: one line per iteration
			var req Request
			err := dec.Decode(&req)
			if err == nil {
				if req.Op == "AFTER_FUZZ" && req.Session == 77 {
					sawSentinel = true
				}
				continue
			}
			if IsMalformed(err) {
				continue // recoverable: keep reading
			}
			break // io error / EOF ends the stream
		}
		if !sawSentinel {
			t.Fatalf("valid frame after fuzz input %q never decoded", data)
		}
	})
}

// FuzzFaultnetResync drives the same resync property through a
// fault-injecting transport: the fuzz stream is delivered in arbitrary
// chunk sizes and optionally severed mid-byte by faultnet. The decoder
// must never panic, must only ever return malformed or io errors, and
// — whenever the connection is NOT cut before the stream completes —
// must still decode the well-formed sentinel frame at the end. A
// partial write is not a protocol error; only a newline commits a
// frame.
func FuzzFaultnetResync(f *testing.F) {
	f.Add([]byte(`{"op":"HELLO"}`+"\n"), uint8(1), uint16(0))
	f.Add([]byte(`{"op":"QUERY","from":0,"to":9}`+"\n"), uint8(3), uint16(0))
	f.Add([]byte(`{"op":"HELLO"`), uint8(2), uint16(7))     // cut mid-frame
	f.Add([]byte("not json at all\n"), uint8(5), uint16(0)) // garbage line
	f.Add([]byte("\n\n"), uint8(0), uint16(1))              // cut in blank lines
	f.Add(bytes.Repeat([]byte(`{"op":"x"}`+"\n"), 16), uint8(4), uint16(40))

	sentinel := `{"op":"AFTER_FUZZ","session":77}` + "\n"
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8, cut uint16) {
		stream := append(append([]byte(nil), data...), '\n')
		stream = append(stream, sentinel...)

		faults := faultnet.Faults{ChunkSize: int(chunk % 16)} // 0 = unsplit writes
		if cut > 0 {
			faults.CutAfter = int64(cut)
		}
		w, r := faultnet.Pipe(faults, faultnet.Faults{})
		go func() {
			w.Write(stream) // ErrCut mid-way is the point, ignore it
			w.Close()
		}()

		dec := NewDecoder(r)
		sawSentinel := false
		for i := 0; i < len(stream)+2; i++ { // bounded: >= one byte per line
			var req Request
			err := dec.Decode(&req)
			if err == nil {
				if req.Op == "AFTER_FUZZ" && req.Session == 77 {
					sawSentinel = true
				}
				continue
			}
			if IsMalformed(err) {
				continue // recoverable: next line is a fresh frame
			}
			break // io error (EOF / cut) ends the stream
		}
		r.Close() // unblock the writer if the reader gave up first

		delivered := cut == 0 || int64(cut) >= int64(len(stream))
		if delivered && !sawSentinel {
			t.Fatalf("uncut stream (fuzz input %q, chunk %d): sentinel never decoded",
				data, chunk%16)
		}
	})
}

// FuzzBinaryDecode feeds arbitrary byte streams through the binary
// frame decoder. Properties: Decode never panics, never allocates
// beyond the frame cap for a hostile length prefix, classifies every
// failure as malformed (fatal or not) or an io error, and stops making
// progress only after a fatal framing error or the end of input.
func FuzzBinaryDecode(f *testing.F) {
	good, _ := AppendFrame(nil, CodecBinary, &Request{Op: OpHello, Version: 3, Codec: CodecNameBinary})
	snap, _ := AppendFrame(nil, CodecBinary, &Response{Op: OpSnapshot, OK: true,
		Events: []string{"PAPI_TOT_CYC"}, Values: []int64{12345}})
	drv, _ := AppendFrame(nil, CodecBinary, &Response{Op: OpDerived, OK: true,
		Session: 1, Seq: 9,
		Metrics: []string{"ipc", "mips"},
		Units:   []string{"", "Minstr/s"},
		DValues: []float64{1.5, 420.25},
		Derived: []DerivedSeries{{Metric: "ipc", Points: []DerivedPoint{{Start: 1000, Value: 0.5}}}}})
	delta, _ := AppendFrame(nil, CodecBinary, &Response{Op: OpDelta, OK: true,
		Session: 2, Seq: 12, Base: 10,
		Idx: []uint32{0, 3}, Values: []int64{99, -7}})
	key, _ := AppendFrame(nil, CodecBinary, &Response{Op: OpSnapshot, OK: true,
		Session: 2, Seq: 10, Events: []string{"a", "b", "c", "d"},
		Values: []int64{1, 2, 3, 4}})
	wild, _ := AppendFrame(nil, CodecBinary, &Request{Op: OpSubscribe, Version: 4,
		Sessions: []uint64{1, 2}, Labels: []string{"app-*"},
		Events: []string{"PAPI_TOT_CYC"}, Delta: true})
	f.Add(good)
	f.Add(snap)
	f.Add(drv)
	f.Add(delta)
	f.Add(key)
	f.Add(wild)
	f.Add(delta[:len(delta)-1])                                   // truncated delta payload
	f.Add(drv[:len(drv)-1])                                       // truncated float payload
	f.Add(good[:len(good)-1])                                     // truncated payload
	f.Add([]byte{0x05})                                           // prefix promising absent bytes
	f.Add(binary.AppendUvarint(nil, MaxFrameBytes+1))             // oversized prefix
	f.Add(bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64))      // non-terminating varint
	f.Add(bytes.Repeat([]byte{0xff}, 16))                         // overflowing varint
	f.Add(append(binary.AppendUvarint(nil, 3), 0x07, 0x00, 0x00)) // count > remaining

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		dec.SetCodec(CodecBinary)
		for i := 0; i < len(data)+2; i++ { // each iteration consumes ≥1 byte or ends
			var resp Response
			err := dec.Decode(&resp)
			if err == nil {
				continue
			}
			if IsFatalMalformed(err) {
				return // no resync point; a real caller evicts here
			}
			if IsMalformed(err) {
				continue // bad payload in a well-delimited frame
			}
			return // io error / EOF ends the stream
		}
		t.Fatalf("decoder made no progress on %q", data)
	})
}

// FuzzBinaryRoundTrip: a Request and a Response whose fields, chosen
// by bit i of mask for field i, are filled from fuzzed strings,
// integers and float bits must survive encode → decode DeepEqual (byte
// for byte on re-encoding, which a NaN needs), and a well-formed frame
// appended after them must still decode (the recoverable path never
// desyncs). The fields are set by reflection, so a field added later
// is fuzzed too.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add("HELLO", "linux-x86", uint64(0), int64(3), math.Float64bits(0.5), uint64(0x7))
	f.Add("", "", uint64(1<<63), int64(1<<62), uint64(0), uint64(0))
	f.Add("CREATE_SESSION", "PAPI_FP_INS", uint64(42), int64(-1), math.Float64bits(math.NaN()), uint64(math.MaxUint64))
	f.Add("\xff", "a\x00b", uint64(math.MaxUint64), int64(math.MinInt64), math.Float64bits(math.Inf(-1)), uint64(0xa5a5a5))
	f.Fuzz(func(t *testing.T, a, b string, u uint64, i int64, fbits uint64, mask uint64) {
		fl := &filler{strs: [2]string{a, b}, u: u, i: i, f: math.Float64frombits(fbits)}
		req := maskedMessage[Request](t, fl, mask)
		resp := maskedMessage[Response](t, fl, mask)
		stream := binFrame(t, &req)
		stream = append(stream, binFrame(t, &resp)...)
		stream = append(stream, binFrame(t, &Request{Op: OpBye})...)

		dec := NewDecoder(bytes.NewReader(stream))
		dec.SetCodec(CodecBinary)
		var gotReq Request
		var gotResp Response
		if err := dec.Decode(&gotReq); err != nil {
			t.Fatalf("decode request: %v", err)
		}
		if err := dec.Decode(&gotResp); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if again := append(binFrame(t, &gotReq), binFrame(t, &gotResp)...); !bytes.Equal(again, stream[:len(again)]) {
			t.Fatalf("re-encoded frames differ:\n got %x\nwant %x", again, stream[:len(again)])
		}
		if !reflect.DeepEqual(gotReq, req) {
			t.Fatalf("request round trip:\n got %+v\nwant %+v", gotReq, req)
		}
		if !math.IsNaN(fl.f) && !reflect.DeepEqual(gotResp, resp) {
			t.Fatalf("response round trip:\n got %+v\nwant %+v", gotResp, resp)
		}
		var bye Request
		if err := dec.Decode(&bye); err != nil || bye.Op != OpBye {
			t.Fatalf("frame after round trip: %+v, %v", bye, err)
		}
	})
}

// FuzzAppendJSON: a Response built from fuzzed strings (any bytes —
// invalid UTF-8, < > &, U+2028), float bits (NaN, ±Inf, subnormals, the
// 'e' switch points), integers and a mask choosing which fields are set,
// hot and cold, must get json.Marshal's bytes from AppendResponse — by
// AppendJSON or by the fallback — and an error exactly when json.Marshal
// errors; AppendJSON never takes a response json.Marshal refuses.
func FuzzAppendJSON(f *testing.F) {
	f.Add(OpSnapshot, "PAPI_TOT_CYC", "live", uint64(7), int64(12345), math.Float64bits(0.5), math.Float64bits(1e-7), uint32(3), uint16(0x01ff))
	f.Add(OpDerived, "ipc", "instr/cycle", uint64(1), int64(-1), math.Float64bits(math.NaN()), math.Float64bits(1e21), uint32(0), uint16(0x0041))
	f.Add(OpDelta, "<a&b>", " ", uint64(1<<63), int64(math.MinInt64), math.Float64bits(math.Inf(-1)), uint64(1), uint32(math.MaxUint32), uint16(0x00ff))
	f.Add("\xff\xfe", "a\"b\\c", "\x00\x1f\x7f", uint64(0), int64(0), uint64(0x000fffffffffffff), math.Float64bits(math.Copysign(0, -1)), uint32(1), uint16(0xffff))
	f.Add(OpStats, "k", "", uint64(2), int64(5), math.Float64bits(123.456), math.Float64bits(-9.99e-7), uint32(2), uint16(0x7e00))
	f.Fuzz(func(t *testing.T, op, s, src string, u uint64, v int64, fa, fb uint64, idx uint32, mask uint16) {
		x, y := math.Float64frombits(fa), math.Float64frombits(fb)
		r := Response{Op: op, OK: mask&1 != 0}
		if mask&(1<<1) != 0 {
			r.Session, r.RealUsec, r.Seq = u, u>>7, u+1
		}
		if mask&(1<<2) != 0 {
			r.Events = []string{s, op}
		}
		if mask&(1<<3) != 0 {
			r.Values = []int64{v, -v, 0}
		}
		if mask&(1<<4) != 0 {
			r.Source = src
		}
		if mask&(1<<5) != 0 {
			r.Metrics, r.Units = []string{s}, []string{src, ""}
		}
		if mask&(1<<6) != 0 {
			r.DValues = []float64{x, y}
		}
		if mask&(1<<7) != 0 {
			r.Idx, r.Base, r.TraceID = []uint32{idx, 0}, u^1, u>>3
		}
		// The fields AppendJSON leaves to json.Marshal.
		if mask&(1<<8) != 0 {
			r.Error = s
		}
		if mask&(1<<9) != 0 {
			r.Platform, r.Codec, r.Protocol = src, s, int(idx)
		}
		if mask&(1<<10) != 0 {
			r.Stats = map[string]uint64{s: u, src: 1}
		}
		if mask&(1<<11) != 0 {
			r.Derived = []DerivedSeries{{Metric: s, Unit: src, Points: []DerivedPoint{{Start: v, Value: x}}}}
		}
		if mask&(1<<12) != 0 {
			r.Sessions, r.Slow = []uint64{u}, []SlowSample{{Op: op, NS: v, TraceID: u}}
		}
		if mask&(1<<13) != 0 {
			r.Series = []tsdb.Series{{Event: s, Buckets: []tsdb.Bucket{{Start: v, Count: u}}}}
		}
		if mask&(1<<14) != 0 {
			r.Hists = map[string]telemetry.Summary{s: {Count: u, Sum: v}}
		}
		want, werr := json.Marshal(&r)
		got, gerr := AppendResponse([]byte("x"), CodecJSON, &r)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("json.Marshal error %v, AppendResponse error %v for %+v", werr, gerr, r)
		}
		if werr == nil && string(got) != "x"+string(want)+"\n" {
			t.Fatalf("AppendResponse\n got %q\nwant %q", got[1:], string(want)+"\n")
		}
		if fast, ok := AppendJSON(nil, &r); ok && (werr != nil || string(fast) != string(want)) {
			t.Fatalf("AppendJSON took %+v: %q, json.Marshal %q, %v", r, fast, want, werr)
		}
	})
}

func TestDecodeResyncAfterMalformed(t *testing.T) {
	input := strings.Join([]string{
		`{"op":"HELLO","version":2}`,
		`this is not json`,
		`{"op":"READ","session":3`,
		``,
		`{"op":"BYE"}`,
	}, "\n") + "\n"
	dec := NewDecoder(strings.NewReader(input))

	var req Request
	if err := dec.Decode(&req); err != nil || req.Op != OpHello || req.Version != 2 {
		t.Fatalf("frame 1: %+v, %v", req, err)
	}
	for i := 0; i < 2; i++ {
		err := dec.Decode(&req)
		if !IsMalformed(err) {
			t.Fatalf("malformed frame %d: err = %v, want MalformedFrameError", i, err)
		}
	}
	if err := dec.Decode(&req); err != nil || req.Op != OpBye {
		t.Fatalf("frame after resync: %+v, %v", req, err)
	}
	if err := dec.Decode(&req); !IsEOF(err) {
		t.Fatalf("end of stream: %v", err)
	}
}

// TestDecodeFinalLineWithoutNewline: an encoded frame whose last byte,
// its newline, never arrived is malformed even though it parses. A
// server writer that cuts a frame there counts it dropped, so a reader
// that decoded it whole would see one frame more than the ledger says
// reached it. The next Decode reports the end of the stream.
func TestDecodeFinalLineWithoutNewline(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, seq := range []uint64{1, 2} {
		if err := enc.Encode(&Response{Op: OpSnapshot, Session: 7, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()[:buf.Len()-1]))
	var resp Response
	if err := dec.Decode(&resp); err != nil || resp.Seq != 1 {
		t.Fatalf("whole frame: %+v, %v", resp, err)
	}
	resp = Response{}
	if err := dec.Decode(&resp); !IsMalformed(err) {
		t.Fatalf("frame cut before its newline decoded as %+v, %v; want MalformedFrameError", resp, err)
	}
	if err := dec.Decode(&resp); !IsEOF(err) {
		t.Fatalf("after the cut frame: %v", err)
	}
}
