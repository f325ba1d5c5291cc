package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// The per-tick shapes papid fans out, as BenchmarkTickFanout's sessions
// produce them: four events, the ipc group, a delta of two counters.
var (
	snapshotShape = Response{Op: OpSnapshot, OK: true, Session: 17,
		Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L2_TCM", "PAPI_L2_TCA"},
		Values: []int64{1843200, 3981312, 5120, 98304}, RealUsec: 1187, Seq: 4242, Source: "live"}
	deltaShape = Response{Op: OpDelta, OK: true, Session: 17, Seq: 4243, Base: 4240,
		Idx: []uint32{0, 1}, Values: []int64{1843968, 3982848}}
	derivedShape = Response{Op: OpDerived, OK: true, Session: 17, Seq: 4242,
		Metrics: []string{"ipc"}, Units: []string{"instr/cycle"}, DValues: []float64{0.46296296296296297}}
)

// TestAppendJSONMatchesMarshal pins AppendJSON to json.Marshal on the
// shapes papid sends and on the edges of each rule, and checks which
// responses it takes: a response it declines still gets json.Marshal's
// bytes (or error) from AppendResponse.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    Response
		fast bool
	}{
		{"snapshot", snapshotShape, true},
		{"delta", deltaShape, true},
		{"derived", derivedShape, true},
		{"publish ack", Response{Op: OpPublish, OK: true, Session: 3, Seq: 9}, true},
		{"bare", Response{}, true},
		{"empty slices", Response{Op: OpRead, Events: []string{}, Values: []int64{}, DValues: []float64{}}, true},
		{"empty strings", Response{Op: OpDerived, Metrics: []string{""}, Units: []string{""}, DValues: []float64{0}}, true},
		{"extremes", Response{Op: OpSnapshot, Session: math.MaxUint64, Values: []int64{math.MinInt64, math.MaxInt64, 0, -1},
			Idx: []uint32{math.MaxUint32}, Base: 1, TraceID: math.MaxUint64}, true},
		{"floats", Response{Op: OpDerived, DValues: []float64{math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e20, 1e21, 123456789e-30,
			math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 2.5e-300}}, true},
		{"error reply", Response{Op: OpError, Error: "bad frame"}, false},
		{"hello reply", Response{Op: OpHello, OK: true, Protocol: ProtocolVersion, Platform: "linux-x86"}, false},
		{"codec", Response{Op: OpHello, OK: true, Codec: CodecNameBinary}, false},
		{"stats", Response{Op: OpStats, OK: true, Stats: map[string]uint64{"b": 2, "a": 1},
			Hists: map[string]telemetry.Summary{"tick": {Count: 1}}}, false},
		{"query", Response{Op: OpQuery, OK: true, Series: []tsdb.Series{{Event: "x"}}}, false},
		{"derived query", Response{Op: OpQuery, OK: true, Derived: []DerivedSeries{{Metric: "ipc"}}}, false},
		{"wildcard subscribe", Response{Op: OpSubscribe, OK: true, Sessions: []uint64{1, 2}}, false},
		{"slow", Response{Op: OpStats, Slow: []SlowSample{{Op: OpQuery, NS: 5}}}, false},
		{"html in op", Response{Op: "<&>"}, false},
		{"quote in event", Response{Op: OpSnapshot, Events: []string{`a"b`}}, false},
		{"backslash in unit", Response{Op: OpDerived, Units: []string{`a\b`}}, false},
		{"control in source", Response{Op: OpSnapshot, Source: "a\tb"}, false},
		{"DEL in metric", Response{Op: OpDerived, Metrics: []string{"a\x7f"}}, false},
		{"U+2028 in event", Response{Op: OpSnapshot, Events: []string{"a\u2028b"}}, false},
		{"invalid UTF-8", Response{Op: "\xff"}, false},
		{"NaN", Response{Op: OpDerived, DValues: []float64{math.NaN()}}, false},
		{"+Inf", Response{Op: OpDerived, DValues: []float64{1, math.Inf(1)}}, false},
		{"-Inf", Response{Op: OpDerived, DValues: []float64{math.Inf(-1)}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAppendJSON(t, &tc.r, tc.fast)
		})
	}
}

// checkAppendJSON asserts AppendResponse's JSON frame is json.Marshal's
// plus a newline, or that both fail, and that AppendJSON takes r
// exactly when fast is set, appending after what dst held.
func checkAppendJSON(t *testing.T, r *Response, fast bool) {
	t.Helper()
	want, werr := json.Marshal(r)
	got, gerr := AppendResponse(nil, CodecJSON, r)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("json.Marshal error %v, AppendResponse error %v", werr, gerr)
	}
	if werr == nil && string(got) != string(want)+"\n" {
		t.Fatalf("AppendResponse\n got %s\nwant %s", got, want)
	}
	out, ok := AppendJSON([]byte("prefix"), r)
	if ok != fast {
		t.Fatalf("AppendJSON took %+v: %v, want %v", r, ok, fast)
	}
	if ok && string(out) != "prefix"+string(want) {
		t.Fatalf("AppendJSON\n got %s\nwant prefix%s", out, want)
	}
	if !ok && string(out) != "prefix" {
		t.Fatalf("AppendJSON declined but returned %q", out)
	}
}

// TestAppendJSONCoversEveryField sets each field of Response in turn, by
// reflection, so a field added to Response later is checked too: it must
// be encoded like json.Marshal encodes it, or declined.
func TestAppendJSONCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Response{})
	for i := 0; i < typ.NumField(); i++ {
		var r Response
		f := reflect.ValueOf(&r).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("v")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(-1)
		case reflect.Uint32, reflect.Uint64:
			f.SetUint(1)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			m.SetMapIndex(reflect.ValueOf("k"), reflect.Zero(f.Type().Elem()))
			f.Set(m)
		default:
			t.Fatalf("Response.%s: no test value for kind %s", typ.Field(i).Name, f.Kind())
		}
		t.Run(typ.Field(i).Name, func(t *testing.T) {
			want, err := json.Marshal(&r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendResponse(nil, CodecJSON, &r)
			if err != nil || string(got) != string(want)+"\n" {
				t.Fatalf("got %s (%v), want %s", got, err, want)
			}
		})
	}
}

// TestAppendFloatMatchesMarshal compares the float encoder with
// json.Marshal on random bit patterns — every exponent, subnormals,
// both signs — and on values either side of the 'e' switch points.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, 1, -1, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20, 5e-324, 1e-7, 1.5e-7, 1e100}
	for len(vals) < 100_000 {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); string(got) != string(want) {
			t.Fatalf("%b: got %s, want %s", math.Float64bits(v), got, want)
		}
	}
}

// BenchmarkAppendFrame prices one frame of each per-tick shape on each
// codec — the encode a fan-out pays once per codec per view.
func BenchmarkAppendFrame(b *testing.B) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		for _, shape := range []struct {
			name string
			r    Response
		}{{"snapshot", snapshotShape}, {"delta", deltaShape}, {"derived", derivedShape}} {
			b.Run(codec.String()+"/"+shape.name, func(b *testing.B) {
				buf := make([]byte, 0, 512)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if buf, err = AppendResponse(buf[:0], codec, &shape.r); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(buf)), "bytes/frame")
			})
		}
	}
}

// BenchmarkDecodeFrame prices decoding one binary frame of each
// per-tick shape, and of a PUBLISH request, through a Decoder whose
// reader yields one frame per Read: what a binary subscriber pays per
// frame, and papid per binary request.
func BenchmarkDecodeFrame(b *testing.B) {
	publish := Request{Op: OpPublish, Session: 17, Events: snapshotShape.Events, Values: snapshotShape.Values}
	for _, shape := range []struct {
		name     string
		msg, dst any
	}{
		{"snapshot", &snapshotShape, new(Response)},
		{"delta", &deltaShape, new(Response)},
		{"derived", &derivedShape, new(Response)},
		{"publish", &publish, new(Request)},
	} {
		b.Run("binary/"+shape.name, func(b *testing.B) {
			frame, err := AppendFrame(nil, CodecBinary, shape.msg)
			if err != nil {
				b.Fatal(err)
			}
			dec := NewDecoder(frameLoop{frame})
			dec.SetCodec(CodecBinary)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := dec.Decode(shape.dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(frame)), "bytes/frame")
		})
	}
}

// frameLoop is a reader that yields its one frame on every Read.
type frameLoop struct{ frame []byte }

func (l frameLoop) Read(p []byte) (int, error) { return copy(p, l.frame), nil }
