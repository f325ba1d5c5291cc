// The binary codec: an opt-in replacement for the
// JSON-lines framing on connections where frame volume lives —
// snapshot fan-out and QUERY replies. One frame is a uvarint length
// prefix followed by that many payload bytes; the payload is a
// presence-bitmap struct encoding with strings length-prefixed and
// every integer a varint (counter values zigzag-encoded, so the large
// cumulative counts that dominate snapshot frames cost their
// information content instead of their decimal width).
//
// The codec is negotiated per connection: a HELLO request carrying
// `"codec":"binary"` (still JSON) is answered by a JSON HELLO reply
// echoing the codec, and both sides switch from the next frame on.
// Peers that never ask — or servers that never confirm — stay on JSON
// lines and never meet a binary byte.
//
// A payload is a uvarint presence bitmap, then the value of each field
// whose bit is set, in bit order. Each message has one encoder
// (appendRequest, appendResponse) and one decoder (readRequest,
// readResponse), and each lists the message's fields once, in wire
// order: a field's bit is its place in that list. So a new field goes
// at the end of both lists and is never inserted, which would renumber
// every field after it. A bool field is its bit alone. A bit past the
// last field's names a field this side does not know and cannot skip:
// the decoder refuses the frame with a recoverable error, which an
// older papid answers with an ERROR reply on a connection that lives
// on.
//
// Framing errors are classified by recoverability: a payload that
// fails to decode inside a well-delimited frame is an ordinary
// MalformedFrameError (the next frame starts at a known offset), while
// a broken length prefix — truncated varint, oversized frame — is
// fatal, because without a trustworthy prefix there is no
// resynchronization point. Callers answer fatal errors with one wire
// ERROR and then close, papid's "clean eviction".
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// Codec selects a frame encoding for Encoder, Decoder and AppendFrame.
type Codec uint8

const (
	// CodecJSON is newline-delimited JSON: what every connection speaks
	// until its HELLO negotiates otherwise.
	CodecJSON Codec = iota
	// CodecBinary is the length-prefixed varint codec a HELLO naming
	// CodecNameBinary switches the connection to.
	CodecBinary
)

// CodecNameBinary is the HELLO negotiation token for CodecBinary.
const CodecNameBinary = "binary"

func (c Codec) String() string {
	if c == CodecBinary {
		return CodecNameBinary
	}
	return "json"
}

// MaxFrameBytes caps one binary frame. A length prefix above it is
// rejected before any allocation, so a hostile or corrupt prefix can
// demand at most a varint's worth of reading, never gigabytes.
const MaxFrameBytes = 4 << 20

// appendBinaryFrame appends one length-prefixed binary frame for v,
// which must be a Request or Response (the only types on the papid
// wire; perfometer's point stream stays on JSON).
func appendBinaryFrame(dst []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case *Request:
		return appendBinaryRequest(dst, m), nil
	case Request:
		return appendBinaryRequest(dst, &m), nil
	case Response: // a *Response takes AppendResponse
		return appendBinaryResponse(dst, &m), nil
	}
	return dst, fmt.Errorf("binary codec cannot encode %T", v)
}

func appendBinaryRequest(dst []byte, r *Request) []byte {
	bp := getBuf()
	body, bits := appendRequest((*bp)[:0], r)
	return framed(dst, bp, bits, body)
}

// appendBinaryResponse is appendBinaryFrame for a *Response, typed so
// that r does not escape.
func appendBinaryResponse(dst []byte, r *Response) []byte {
	bp := getBuf()
	body, bits := appendResponse((*bp)[:0], r)
	return framed(dst, bp, bits, body)
}

// framed appends the payload — the presence bitmap bits, then body,
// encoded into the pooled scratch *bp — to dst behind its uvarint
// length, and returns the scratch to the pool. The body goes to scratch
// first because the bitmap is only known once every field was looked
// at, and the payload's length is the prefix: a QUERY reply encoded in
// place would grow dst one doubling at a time.
func framed(dst []byte, bp *[]byte, bits uint64, body []byte) []byte {
	var head [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], bits)
	dst = binary.AppendUvarint(dst, uint64(n+len(body)))
	dst = append(dst, head[:n]...)
	dst = append(dst, body...)
	*bp = body[:0]
	putBuf(bp)
	return dst
}

// decodeBinaryPayload decodes one frame's payload into v. Any error is
// a content error within a known frame boundary — recoverable.
func decodeBinaryPayload(payload []byte, v any) error {
	r := binReader{buf: payload}
	switch m := v.(type) {
	case *Request:
		readRequest(&r, m)
	case *Response:
		readResponse(&r, m)
	default:
		return fmt.Errorf("binary codec cannot decode into %T", v)
	}
	if r.err == nil && len(r.buf) != 0 {
		return fmt.Errorf("%d trailing bytes after payload", len(r.buf))
	}
	return r.err
}

// appendRequest appends m's set fields to dst and returns their
// presence bitmap; has takes the next bit for each field.
func appendRequest(dst []byte, m *Request) ([]byte, uint64) {
	var bits, bit uint64 = 0, 1
	has := func(set bool) bool {
		if set {
			bits |= bit
		}
		bit <<= 1
		return set
	}
	if has(m.Op != "") {
		dst = appendStr(dst, m.Op)
	}
	if has(m.Session != 0) {
		dst = binary.AppendUvarint(dst, m.Session)
	}
	if has(m.Platform != "") {
		dst = appendStr(dst, m.Platform)
	}
	if has(len(m.Events) > 0) {
		dst = appendStrs(dst, m.Events)
	}
	if has(m.Workload != "") {
		dst = appendStr(dst, m.Workload)
	}
	if has(m.N != 0) {
		dst = appendZigzag(dst, int64(m.N))
	}
	if has(len(m.Values) > 0) {
		dst = appendI64s(dst, m.Values)
	}
	if has(m.Label != "") {
		dst = appendStr(dst, m.Label)
	}
	if has(m.Version != 0) {
		dst = appendZigzag(dst, int64(m.Version))
	}
	if has(m.Codec != "") {
		dst = appendStr(dst, m.Codec)
	}
	if has(m.From != 0) {
		dst = appendZigzag(dst, m.From)
	}
	if has(m.To != 0) {
		dst = appendZigzag(dst, m.To)
	}
	if has(m.Step != 0) {
		dst = appendZigzag(dst, m.Step)
	}
	if has(len(m.Derive) > 0) {
		dst = appendStrs(dst, m.Derive)
	}
	if has(len(m.Sessions) > 0) {
		dst = appendU64s(dst, m.Sessions)
	}
	if has(len(m.Labels) > 0) {
		dst = appendStrs(dst, m.Labels)
	}
	has(m.Delta)
	return dst, bits
}

// readRequest is appendRequest's inverse, field for field.
func readRequest(r *binReader, m *Request) {
	bits, bit := r.uvarint(), uint64(1)
	has := func() bool {
		set := bits&bit != 0
		bit <<= 1
		return set
	}
	*m = Request{}
	if has() {
		m.Op = r.str()
	}
	if has() {
		m.Session = r.uvarint()
	}
	if has() {
		m.Platform = r.str()
	}
	if has() {
		m.Events = r.strs()
	}
	if has() {
		m.Workload = r.str()
	}
	if has() {
		m.N = int(r.zigzag())
	}
	if has() {
		m.Values = r.i64s()
	}
	if has() {
		m.Label = r.str()
	}
	if has() {
		m.Version = int(r.zigzag())
	}
	if has() {
		m.Codec = r.str()
	}
	if has() {
		m.From = r.zigzag()
	}
	if has() {
		m.To = r.zigzag()
	}
	if has() {
		m.Step = r.zigzag()
	}
	if has() {
		m.Derive = r.strs()
	}
	if has() {
		m.Sessions = r.u64s()
	}
	if has() {
		m.Labels = r.strs()
	}
	m.Delta = has()
	r.known(bits, bit, "request")
}

// appendResponse appends m's set fields to dst and returns their
// presence bitmap; has takes the next bit for each field.
func appendResponse(dst []byte, m *Response) ([]byte, uint64) {
	var bits, bit uint64 = 0, 1
	has := func(set bool) bool {
		if set {
			bits |= bit
		}
		bit <<= 1
		return set
	}
	if has(m.Op != "") {
		dst = appendStr(dst, m.Op)
	}
	has(m.OK)
	if has(m.Error != "") {
		dst = appendStr(dst, m.Error)
	}
	if has(m.Session != 0) {
		dst = binary.AppendUvarint(dst, m.Session)
	}
	if has(m.Platform != "") {
		dst = appendStr(dst, m.Platform)
	}
	if has(len(m.Events) > 0) {
		dst = appendStrs(dst, m.Events)
	}
	if has(len(m.Values) > 0) {
		dst = appendI64s(dst, m.Values)
	}
	if has(m.RealUsec != 0) {
		dst = binary.AppendUvarint(dst, m.RealUsec)
	}
	if has(m.Seq != 0) {
		dst = binary.AppendUvarint(dst, m.Seq)
	}
	if has(m.Protocol != 0) {
		dst = appendZigzag(dst, int64(m.Protocol))
	}
	if has(m.Source != "") {
		dst = appendStr(dst, m.Source)
	}
	if has(len(m.Stats) > 0) {
		dst = appendStats(dst, m.Stats)
	}
	if has(len(m.Series) > 0) {
		dst = appendSeries(dst, m.Series)
	}
	if has(m.Codec != "") {
		dst = appendStr(dst, m.Codec)
	}
	if has(len(m.Hists) > 0) {
		dst = appendHists(dst, m.Hists)
	}
	if has(len(m.Metrics) > 0) {
		dst = appendStrs(dst, m.Metrics)
	}
	if has(len(m.Units) > 0) {
		dst = appendStrs(dst, m.Units)
	}
	if has(len(m.DValues) > 0) {
		dst = appendF64s(dst, m.DValues)
	}
	if has(len(m.Derived) > 0) {
		dst = appendDerived(dst, m.Derived)
	}
	if has(len(m.Sessions) > 0) {
		dst = appendU64s(dst, m.Sessions)
	}
	if has(len(m.Idx) > 0) {
		dst = appendU32s(dst, m.Idx)
	}
	if has(m.Base != 0) {
		dst = binary.AppendUvarint(dst, m.Base)
	}
	if has(m.TraceID != 0) {
		dst = binary.AppendUvarint(dst, m.TraceID)
	}
	if has(len(m.Slow) > 0) {
		dst = appendSlow(dst, m.Slow)
	}
	return dst, bits
}

// readResponse is appendResponse's inverse, field for field.
func readResponse(r *binReader, m *Response) {
	bits, bit := r.uvarint(), uint64(1)
	has := func() bool {
		set := bits&bit != 0
		bit <<= 1
		return set
	}
	*m = Response{}
	if has() {
		m.Op = r.str()
	}
	m.OK = has()
	if has() {
		m.Error = r.str()
	}
	if has() {
		m.Session = r.uvarint()
	}
	if has() {
		m.Platform = r.str()
	}
	if has() {
		m.Events = r.strs()
	}
	if has() {
		m.Values = r.i64s()
	}
	if has() {
		m.RealUsec = r.uvarint()
	}
	if has() {
		m.Seq = r.uvarint()
	}
	if has() {
		m.Protocol = int(r.zigzag())
	}
	if has() {
		m.Source = r.str()
	}
	if has() {
		m.Stats = r.stats()
	}
	if has() {
		m.Series = r.series()
	}
	if has() {
		m.Codec = r.str()
	}
	if has() {
		m.Hists = r.hists()
	}
	if has() {
		m.Metrics = r.strs()
	}
	if has() {
		m.Units = r.strs()
	}
	if has() {
		m.DValues = r.f64s()
	}
	if has() {
		m.Derived = r.derived()
	}
	if has() {
		m.Sessions = r.u64s()
	}
	if has() {
		m.Idx = r.u32s()
	}
	if has() {
		m.Base = r.uvarint()
	}
	if has() {
		m.TraceID = r.uvarint()
	}
	if has() {
		m.Slow = r.slow()
	}
	r.known(bits, bit, "response")
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrs(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendStr(dst, s)
	}
	return dst
}

func appendI64s(dst []byte, vs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendZigzag(dst, v)
	}
	return dst
}

func appendU64s(dst []byte, vs []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

func appendU32s(dst []byte, vs []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// appendStats writes the map key-sorted so identical responses encode
// identically — byte-for-byte determinism keeps tests and diffs sane.
func appendStats(dst []byte, st map[string]uint64) []byte {
	keys := sortedKeys(st)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendStr(dst, k)
		dst = binary.AppendUvarint(dst, st[k])
	}
	return dst
}

// appendHists writes the histogram-summary map key-sorted, like
// appendStats: counts and sums as uvarints, quantiles zigzagged.
func appendHists(dst []byte, hists map[string]telemetry.Summary) []byte {
	keys := sortedKeys(hists)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		h := hists[k]
		dst = appendStr(dst, k)
		dst = binary.AppendUvarint(dst, h.Count)
		dst = appendZigzag(dst, h.Sum)
		dst = appendZigzag(dst, h.Min)
		dst = appendZigzag(dst, h.Max)
		dst = appendZigzag(dst, h.P50)
		dst = appendZigzag(dst, h.P90)
		dst = appendZigzag(dst, h.P99)
	}
	return dst
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendSeries(dst []byte, series []tsdb.Series) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(series)))
	for _, sr := range series {
		dst = appendStr(dst, sr.Event)
		dst = appendZigzag(dst, sr.Width)
		dst = binary.AppendUvarint(dst, uint64(len(sr.Buckets)))
		for _, bk := range sr.Buckets {
			dst = appendZigzag(dst, bk.Start)
			dst = binary.AppendUvarint(dst, bk.Count)
			dst = appendZigzag(dst, bk.Min)
			dst = appendZigzag(dst, bk.Max)
			dst = appendZigzag(dst, bk.Sum)
			dst = appendZigzag(dst, bk.Last)
		}
	}
	return dst
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// appendF64 writes a float64 as the uvarint of its IEEE-754 bit
// pattern. Varint offers no compression for arbitrary doubles (most
// cost 9–10 bytes), but derived values are the only float traffic and
// a handful per frame; reusing the varint reader keeps the decoder's
// bounds-checking uniform.
func appendF64(dst []byte, v float64) []byte {
	return binary.AppendUvarint(dst, math.Float64bits(v))
}

func appendF64s(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendF64(dst, v)
	}
	return dst
}

func appendDerived(dst []byte, ds []DerivedSeries) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for _, sr := range ds {
		dst = appendStr(dst, sr.Metric)
		dst = appendStr(dst, sr.Unit)
		dst = binary.AppendUvarint(dst, uint64(len(sr.Points)))
		for _, p := range sr.Points {
			dst = appendZigzag(dst, p.Start)
			dst = appendF64(dst, p.Value)
		}
	}
	return dst
}

func appendSlow(dst []byte, ss []SlowSample) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendStr(dst, s.Op)
		dst = binary.AppendUvarint(dst, s.Session)
		dst = appendZigzag(dst, s.NS)
		dst = binary.AppendUvarint(dst, s.TraceID)
	}
	return dst
}

var errTruncated = errors.New("truncated binary payload")

// binReader is a bounds-checked cursor over one frame's payload, with a
// sticky error: the first failure is kept and empties the cursor, so
// every later read returns a zero value at once and a decoder checks
// err once, at the end. Every count it reads is sanity-checked against
// the bytes remaining (each element costs at least one byte), so a
// corrupt count cannot demand an allocation larger than the frame that
// carried it.
type binReader struct {
	buf []byte
	err error
}

func (r *binReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// known fails the read when bits holds a bit at or past next, the bit
// after the last field's: a field of a newer peer, whose bytes this
// side cannot skip. It overrides any earlier error, so such a frame is
// always reported as what it is.
func (r *binReader) known(bits, next uint64, msg string) {
	if unknown := bits &^ (next - 1); unknown != 0 {
		r.err = fmt.Errorf("unknown %s field bits %#x", msg, unknown)
	}
}

func (r *binReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *binReader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *binReader) f64() float64 { return math.Float64frombits(r.uvarint()) }

func (r *binReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.buf)) {
		r.fail(fmt.Errorf("count %d exceeds %d payload bytes", n, len(r.buf)))
		return 0
	}
	return int(n)
}

func (r *binReader) str() string {
	n := r.count()
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *binReader) strs() []string {
	out := make([]string, r.count())
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *binReader) u64s() []uint64 {
	out := make([]uint64, r.count())
	for i := range out {
		out[i] = r.uvarint()
	}
	return out
}

func (r *binReader) u32s() []uint32 {
	out := make([]uint32, r.count())
	for i := range out {
		v := r.uvarint()
		if v > math.MaxUint32 {
			r.fail(fmt.Errorf("index %d overflows uint32", v))
		}
		out[i] = uint32(v)
	}
	return out
}

func (r *binReader) i64s() []int64 {
	out := make([]int64, r.count())
	for i := range out {
		out[i] = r.zigzag()
	}
	return out
}

func (r *binReader) f64s() []float64 {
	out := make([]float64, r.count())
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *binReader) stats() map[string]uint64 {
	n := r.count()
	out := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := r.str()
		out[k] = r.uvarint()
	}
	return out
}

func (r *binReader) hists() map[string]telemetry.Summary {
	n := r.count()
	out := make(map[string]telemetry.Summary, n)
	for i := 0; i < n; i++ {
		k := r.str()
		out[k] = telemetry.Summary{Count: r.uvarint(), Sum: r.zigzag(), Min: r.zigzag(),
			Max: r.zigzag(), P50: r.zigzag(), P90: r.zigzag(), P99: r.zigzag()}
	}
	return out
}

func (r *binReader) series() []tsdb.Series {
	out := make([]tsdb.Series, r.count())
	for i := range out {
		sr := &out[i]
		sr.Event, sr.Width = r.str(), r.zigzag()
		sr.Buckets = make([]tsdb.Bucket, r.count())
		for j := range sr.Buckets {
			sr.Buckets[j] = tsdb.Bucket{Start: r.zigzag(), Count: r.uvarint(), Min: r.zigzag(),
				Max: r.zigzag(), Sum: r.zigzag(), Last: r.zigzag()}
		}
	}
	return out
}

func (r *binReader) derived() []DerivedSeries {
	out := make([]DerivedSeries, r.count())
	for i := range out {
		ds := &out[i]
		ds.Metric, ds.Unit = r.str(), r.str()
		ds.Points = make([]DerivedPoint, r.count())
		for j := range ds.Points {
			ds.Points[j] = DerivedPoint{Start: r.zigzag(), Value: r.f64()}
		}
	}
	return out
}

func (r *binReader) slow() []SlowSample {
	out := make([]SlowSample, r.count())
	for i := range out {
		out[i] = SlowSample{Op: r.str(), Session: r.uvarint(), NS: r.zigzag(), TraceID: r.uvarint()}
	}
	return out
}
