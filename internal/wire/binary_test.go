package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// binFrame encodes one frame the way Encoder would, for feeding raw
// streams to the decoder under test.
func binFrame(t *testing.T, v any) []byte {
	t.Helper()
	b, err := AppendFrame(nil, CodecBinary, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// binCase is one message of a round-trip test, named in the golden.
type binCase[T any] struct {
	name string
	msg  T
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	cases := append([]binCase[Request]{
		{"empty", Request{}},
		{"hello", Request{Op: OpHello, Version: 3, Codec: CodecNameBinary}},
		{"create", Request{Op: OpCreate, Platform: "aix-power3", Events: []string{"PAPI_FP_INS", "PAPI_TOT_CYC"},
			Workload: "dot", N: 4096, Label: "run-1"}},
		{"publish", Request{Op: OpPublish, Session: 7, Values: []int64{0, -1, 1 << 62, -(1 << 62)}}},
		{"query", Request{Op: OpQuery, Session: 9, From: -5, To: 1 << 40, Step: 10_000_000}},
		{"query-derive", Request{Op: OpQuery, Session: 9, To: 1 << 40, Step: 10_000_000, Derive: []string{"ipc", "l2miss"}}},
		{"subscribe-derive", Request{Op: OpSubscribe, Session: 2, Derive: []string{"flops"}}},
	}, fieldCases[Request](t)...)
	checkBinaryRoundTrip(t, "Request", cases, func(r Request) Request { return r })
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	cases := append([]binCase[Response]{
		{"empty", Response{}},
		{"hello", Response{Op: OpHello, OK: true, Protocol: 3, Platform: "linux-x86", Codec: CodecNameBinary}},
		{"snapshot", Response{Op: OpSnapshot, OK: true, Session: 12, Seq: 99, RealUsec: 1 << 50,
			Events: []string{"PAPI_TOT_CYC"}, Values: []int64{1234567890123}, Source: "live"}},
		{"error", Response{Op: OpError, Error: "unknown event \"X\""}},
		{"stats", Response{Op: OpStats, OK: true, Stats: map[string]uint64{"ticks": 7, "evictions": 0, "bytes_sent_binary": 1 << 33}}},
		{"stats-hists", Response{Op: OpStats, OK: true, Stats: map[string]uint64{"ticks": 7},
			Hists: map[string]telemetry.Summary{
				"op/READ/json": {Count: 120, Sum: 4_800_000, Min: 900, Max: 2 << 40,
					P50: 30_000, P90: 61_000, P99: 120_000},
				"tick": {Count: 3, Sum: -3, Min: -1, Max: -1, P50: -1, P90: -1, P99: -1},
			}}},
		{"query", Response{Op: OpQuery, OK: true, Session: 3, Series: []tsdb.Series{{
			Event: "PAPI_FP_INS", Width: 10_000_000,
			Buckets: []tsdb.Bucket{{Start: -20, Count: 3, Min: -7, Max: 1 << 61, Sum: 42, Last: 41}},
		}}}},
		{"derived", Response{Op: OpDerived, OK: true, Session: 5, Seq: 17,
			Metrics: []string{"ipc", "mips"},
			Units:   []string{"", "Minstr/s"},
			DValues: []float64{0.5, -1.25e9}}},
		{"query-derived", Response{Op: OpQuery, OK: true, Session: 5, Derived: []DerivedSeries{
			{Metric: "ipc", Points: []DerivedPoint{{Start: 100, Value: 1.5}, {Start: 200, Value: 0}}},
			{Metric: "mem_bw_mbs", Unit: "MB/s", Points: []DerivedPoint{{Start: -1, Value: 3.14159}}},
		}}},
		{"read-trace", Response{Op: OpRead, OK: true, Session: 2, Values: []int64{1}, TraceID: 0xdeadbeefcafe}},
		{"stats-slow", Response{Op: OpStats, OK: true, Stats: map[string]uint64{"ticks": 1}, TraceID: 1,
			Slow: []SlowSample{
				{Op: OpQuery, Session: 9, NS: 312_000_000, TraceID: 0xfeed},
				{Op: OpPublish, NS: 1, TraceID: 0},
			}}},
	}, fieldCases[Response](t)...)
	checkBinaryRoundTrip(t, "Response", cases, func(r Response) Response {
		// An empty map encodes as absent; normalize for the comparison.
		if len(r.Stats) == 0 {
			r.Stats = nil
		}
		return r
	})
}

// checkBinaryRoundTrip encodes every case into one stream, checks each
// frame against the golden line "<kind>/<name>", and decodes the stream
// back, each case DeepEqual to what was encoded (after norm).
func checkBinaryRoundTrip[T any](t *testing.T, kind string, cases []binCase[T], norm func(T) T) {
	t.Helper()
	frames := map[string]string{}
	var stream []byte
	for i := range cases {
		frame := binFrame(t, &cases[i].msg)
		frames[kind+"/"+cases[i].name] = hex.EncodeToString(frame)
		stream = append(stream, frame...)
	}
	checkGolden(t, kind+"/", frames)
	dec := NewDecoder(bytes.NewReader(stream))
	dec.SetCodec(CodecBinary)
	for _, c := range cases {
		var got T
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := norm(c.msg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
	var extra T
	if err := dec.Decode(&extra); !IsEOF(err) {
		t.Errorf("after last frame: err = %v, want EOF", err)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/binary.golden from this tree's codec")

// checkGolden compares frames (golden name → hex frame) with the lines
// of testdata/binary.golden whose name starts with prefix, in both
// directions. The golden was recorded before the codec's rewrite to
// one field list per direction: every frame the codec writes must stay
// byte-identical to it. -update rewrites prefix's lines, keeping the
// others.
func checkGolden(t *testing.T, prefix string, frames map[string]string) {
	t.Helper()
	path := filepath.Join("testdata", "binary.golden")
	golden := map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok {
			golden[k] = v
		}
	}
	if *update {
		for k := range golden {
			if strings.HasPrefix(k, prefix) {
				delete(golden, k)
			}
		}
		for k, v := range frames {
			golden[k] = v
		}
		keys := make([]string, 0, len(golden))
		for k := range golden {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, golden[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for k, v := range frames {
		if want, ok := golden[k]; !ok {
			t.Errorf("%s: no golden frame", k)
		} else if v != want {
			t.Errorf("%s: frame\n %s\ngolden\n %s", k, v, want)
		}
	}
	for k := range golden {
		if _, ok := frames[k]; strings.HasPrefix(k, prefix) && !ok {
			t.Errorf("%s: golden frame no case writes", k)
		}
	}
}

// fieldCases returns one message of type T per field, that field set
// alone, then one with every field set, each named after what it sets.
// The fields are found by reflection, so a field added to Request or
// Response later is round-tripped too, and the golden names it.
func fieldCases[T any](t *testing.T) []binCase[T] {
	typ := reflect.TypeOf(*new(T))
	var cases []binCase[T]
	for i := 0; i < typ.NumField(); i++ {
		cases = append(cases, binCase[T]{"field/" + typ.Field(i).Name, maskedMessage[T](t, testFiller(), 1<<i)})
	}
	return append(cases, binCase[T]{"every-field", maskedMessage[T](t, testFiller(), math.MaxUint64)})
}

func testFiller() *filler {
	return &filler{strs: [2]string{"PAPI_TOT_CYC", "ipc"}, u: 300, i: -300, f: -1.25e9}
}

// maskedMessage returns a T whose field i is filled by fl when bit i of
// mask is set, and zero otherwise.
func maskedMessage[T any](tb testing.TB, fl *filler, mask uint64) T {
	var m T
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		if mask&(1<<i) != 0 {
			fl.fill(tb, v.Field(i))
		}
	}
	return m
}

// filler sets a value and everything it holds to values derived from
// its seeds. Every leaf takes the next number n: a string is a seed
// string with n appended (the seeds alternate), an integer steps n
// away from its seed, so no two integer or string leaves of a message
// are equal and a decoder that swaps two of them is caught. A float is
// its seed, a bool true, a slice two elements long and a map two keys
// wide.
type filler struct {
	strs [2]string
	u    uint64
	i    int64
	f    float64
	n    int
}

func (fl *filler) fill(tb testing.TB, v reflect.Value) {
	fl.n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fl.strs[fl.n%2] + strconv.Itoa(fl.n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(fl.i - int64(fl.n))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(fl.u + uint64(fl.n))
	case reflect.Float64:
		v.SetFloat(fl.f)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fl.fill(tb, v.Index(i))
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fl.fill(tb, k)
			fl.fill(tb, e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fl.fill(tb, v.Field(i))
		}
	default:
		tb.Fatalf("filler: no value for kind %s (%s)", v.Kind(), v.Type())
	}
}

// TestBinarySmallerThanJSON pins the codec's reason to exist: a
// realistic snapshot frame must be substantially smaller in binary.
func TestBinarySmallerThanJSON(t *testing.T) {
	resp := Response{Op: OpSnapshot, OK: true, Session: 41, Seq: 100052,
		Events:   []string{"PAPI_TOT_CYC", "PAPI_FP_INS", "PAPI_L1_DCM", "PAPI_TLB_TL"},
		Values:   []int64{982451653000123, 17180131327, 6700417, 104729},
		RealUsec: 73_000_000, Source: "live"}
	bin := binFrame(t, &resp)
	js, err := AppendFrame(nil, CodecJSON, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin)*2 >= len(js) {
		t.Errorf("binary frame %dB not < half of JSON frame %dB", len(bin), len(js))
	}
}

// TestBinaryRecoverableMalformed: a garbage payload inside a correct
// length prefix poisons only its own frame — the next frame decodes.
func TestBinaryRecoverableMalformed(t *testing.T) {
	bad := binary.AppendUvarint(nil, 4)
	bad = append(bad, 0xff, 0xff, 0xff, 0xff) // bits varint says fields follow; nothing does
	stream := append(bad, binFrame(t, &Request{Op: OpBye})...)

	dec := NewDecoder(bytes.NewReader(stream))
	dec.SetCodec(CodecBinary)
	var req Request
	err := dec.Decode(&req)
	if !IsMalformed(err) || IsFatalMalformed(err) {
		t.Fatalf("bad payload: err = %v, want recoverable MalformedFrameError", err)
	}
	if err := dec.Decode(&req); err != nil || req.Op != OpBye {
		t.Fatalf("frame after recoverable error: %+v, %v", req, err)
	}
}

// TestBinaryUnknownFieldBits: a frame from a hypothetical newer peer
// with a presence bit one past the last field's is rejected as
// recoverable, not misparsed — for both messages. Every field has one
// bit, so a message's fields use its low NumField bits.
func TestBinaryUnknownFieldBits(t *testing.T) {
	for _, tc := range []struct {
		name string
		into any
	}{{"Request", new(Request)}, {"Response", new(Response)}} {
		t.Run(tc.name, func(t *testing.T) {
			past := uint64(1) << reflect.TypeOf(tc.into).Elem().NumField()
			payload := binary.AppendUvarint(nil, past)
			stream := binary.AppendUvarint(nil, uint64(len(payload)))
			stream = append(stream, payload...)
			dec := NewDecoder(bytes.NewReader(stream))
			dec.SetCodec(CodecBinary)
			err := dec.Decode(tc.into)
			if !IsMalformed(err) || IsFatalMalformed(err) {
				t.Fatalf("unknown bits: err = %v, want recoverable MalformedFrameError", err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%#x", past)) {
				t.Errorf("unknown bits: err = %v, want it to name %#x", err, past)
			}
		})
	}
}

func TestBinaryFatalFraming(t *testing.T) {
	cases := []struct {
		name   string
		stream []byte
	}{
		{"oversized length prefix", binary.AppendUvarint(nil, MaxFrameBytes+1)},
		{"varint never terminates", bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64+2)},
		{"varint overflows", append(bytes.Repeat([]byte{0xff}, 9), 0x7f, 0x00)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewDecoder(bytes.NewReader(tc.stream))
			dec.SetCodec(CodecBinary)
			var req Request
			err := dec.Decode(&req)
			if !IsFatalMalformed(err) {
				t.Fatalf("err = %v, want fatal MalformedFrameError", err)
			}
		})
	}
}

// TestBinaryTruncatedEOF: the stream ends mid-frame — fatal, because
// the promised bytes can never arrive.
func TestBinaryTruncatedEOF(t *testing.T) {
	whole := binFrame(t, &Request{Op: OpCreate, Events: []string{"PAPI_TOT_CYC"}})
	dec := NewDecoder(bytes.NewReader(whole[:len(whole)-2]))
	dec.SetCodec(CodecBinary)
	var req Request
	err := dec.Decode(&req)
	if !IsFatalMalformed(err) {
		t.Fatalf("truncated stream: err = %v, want fatal MalformedFrameError", err)
	}
}

// TestBinaryPartialFrameAcrossDeadline: a read deadline tripping
// mid-frame must surface as a timeout with the partial bytes kept, and
// the retry must complete the same frame — the slow-writer case.
func TestBinaryPartialFrameAcrossDeadline(t *testing.T) {
	cl, srv := net.Pipe()
	defer cl.Close()
	defer srv.Close()

	whole := binFrame(t, &Request{Op: OpPublish, Session: 5, Values: []int64{1, 2, 3}})
	half := len(whole) / 2
	go cl.Write(whole[:half])

	dec := NewDecoder(srv)
	dec.SetCodec(CodecBinary)
	var req Request
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if err := dec.Decode(&req); !IsTimeout(err) {
		t.Fatalf("mid-frame deadline: err = %v, want timeout", err)
	}

	go cl.Write(whole[half:])
	srv.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("resumed frame: %v", err)
	}
	if req.Op != OpPublish || req.Session != 5 || len(req.Values) != 3 {
		t.Errorf("resumed frame decoded to %+v", req)
	}
}

// TestSetCodecKeepsPipelinedBytes: bytes the peer sent behind the
// negotiation frame, already sitting in the buffered reader, must
// survive the codec switch — the upgrade handshake's pipelining case.
func TestSetCodecKeepsPipelinedBytes(t *testing.T) {
	var stream []byte
	stream = append(stream, []byte(`{"op":"HELLO","version":3,"codec":"binary"}`+"\n")...)
	stream = append(stream, binFrame(t, &Request{Op: OpRead, Session: 2})...)

	dec := NewDecoder(bytes.NewReader(stream))
	var hello Request
	if err := dec.Decode(&hello); err != nil || hello.Op != OpHello {
		t.Fatalf("hello: %+v, %v", hello, err)
	}
	dec.SetCodec(CodecBinary)
	var read Request
	if err := dec.Decode(&read); err != nil || read.Op != OpRead || read.Session != 2 {
		t.Fatalf("pipelined binary frame: %+v, %v", read, err)
	}
}
