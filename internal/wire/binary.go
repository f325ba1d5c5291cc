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
// which must be a *Request or *Response (the only types on the papid
// wire; perfometer's point stream stays on JSON).
func appendBinaryFrame(dst []byte, v any) ([]byte, error) {
	bp := getBuf()
	payload, err := appendBinaryPayload((*bp)[:0], v)
	if err != nil {
		putBuf(bp)
		return dst, err
	}
	return framed(dst, bp, payload), nil
}

// appendBinaryResponse is appendBinaryFrame for a *Response, typed so
// that r does not escape.
func appendBinaryResponse(dst []byte, r *Response) []byte {
	bp := getBuf()
	return framed(dst, bp, appendResponse((*bp)[:0], r))
}

// framed appends payload, encoded into the pooled scratch *bp, to dst
// behind its uvarint length, and returns the scratch to the pool. The
// payload goes to scratch first because its length is the prefix: a
// QUERY reply encoded in place would grow dst one doubling at a time.
func framed(dst []byte, bp *[]byte, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	*bp = payload[:0]
	putBuf(bp)
	return dst
}

func appendBinaryPayload(dst []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case *Request:
		return appendRequest(dst, m), nil
	case Request:
		return appendRequest(dst, &m), nil
	case *Response:
		return appendResponse(dst, m), nil
	case Response:
		return appendResponse(dst, &m), nil
	}
	return dst, fmt.Errorf("binary codec cannot encode %T", v)
}

// decodeBinaryPayload decodes one frame's payload into v. Any error is
// a content error within a known frame boundary — recoverable.
func decodeBinaryPayload(payload []byte, v any) error {
	r := binReader{buf: payload}
	var err error
	switch m := v.(type) {
	case *Request:
		err = readRequest(&r, m)
	case *Response:
		err = readResponse(&r, m)
	default:
		return fmt.Errorf("binary codec cannot decode into %T", v)
	}
	if err != nil {
		return err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%d trailing bytes after payload", len(r.buf))
	}
	return nil
}

// Request field presence bits, in encoding order. reqDelta carries the
// boolean itself, like respOK: the bit set means Delta == true.
const (
	reqOp = 1 << iota
	reqSession
	reqPlatform
	reqEvents
	reqWorkload
	reqN
	reqValues
	reqLabel
	reqVersion
	reqCodec
	reqFrom
	reqTo
	reqStep
	reqDerive
	reqSessions
	reqLabels
	reqDelta

	reqKnown = reqDelta<<1 - 1
)

func appendRequest(dst []byte, r *Request) []byte {
	var bits uint64
	setIf := func(cond bool, bit uint64) {
		if cond {
			bits |= bit
		}
	}
	setIf(r.Op != "", reqOp)
	setIf(r.Session != 0, reqSession)
	setIf(r.Platform != "", reqPlatform)
	setIf(len(r.Events) > 0, reqEvents)
	setIf(r.Workload != "", reqWorkload)
	setIf(r.N != 0, reqN)
	setIf(len(r.Values) > 0, reqValues)
	setIf(r.Label != "", reqLabel)
	setIf(r.Version != 0, reqVersion)
	setIf(r.Codec != "", reqCodec)
	setIf(r.From != 0, reqFrom)
	setIf(r.To != 0, reqTo)
	setIf(r.Step != 0, reqStep)
	setIf(len(r.Derive) > 0, reqDerive)
	setIf(len(r.Sessions) > 0, reqSessions)
	setIf(len(r.Labels) > 0, reqLabels)
	setIf(r.Delta, reqDelta)

	dst = binary.AppendUvarint(dst, bits)
	if bits&reqOp != 0 {
		dst = appendStr(dst, r.Op)
	}
	if bits&reqSession != 0 {
		dst = binary.AppendUvarint(dst, r.Session)
	}
	if bits&reqPlatform != 0 {
		dst = appendStr(dst, r.Platform)
	}
	if bits&reqEvents != 0 {
		dst = appendStrs(dst, r.Events)
	}
	if bits&reqWorkload != 0 {
		dst = appendStr(dst, r.Workload)
	}
	if bits&reqN != 0 {
		dst = appendZigzag(dst, int64(r.N))
	}
	if bits&reqValues != 0 {
		dst = appendI64s(dst, r.Values)
	}
	if bits&reqLabel != 0 {
		dst = appendStr(dst, r.Label)
	}
	if bits&reqVersion != 0 {
		dst = appendZigzag(dst, int64(r.Version))
	}
	if bits&reqCodec != 0 {
		dst = appendStr(dst, r.Codec)
	}
	if bits&reqFrom != 0 {
		dst = appendZigzag(dst, r.From)
	}
	if bits&reqTo != 0 {
		dst = appendZigzag(dst, r.To)
	}
	if bits&reqStep != 0 {
		dst = appendZigzag(dst, r.Step)
	}
	if bits&reqDerive != 0 {
		dst = appendStrs(dst, r.Derive)
	}
	if bits&reqSessions != 0 {
		dst = appendU64s(dst, r.Sessions)
	}
	if bits&reqLabels != 0 {
		dst = appendStrs(dst, r.Labels)
	}
	return dst
}

func readRequest(r *binReader, m *Request) error {
	bits, err := r.uvarint()
	if err != nil {
		return err
	}
	if bits&^uint64(reqKnown) != 0 {
		return fmt.Errorf("unknown request field bits %#x", bits&^uint64(reqKnown))
	}
	*m = Request{Delta: bits&reqDelta != 0}
	if bits&reqOp != 0 {
		if m.Op, err = r.str(); err != nil {
			return err
		}
	}
	if bits&reqSession != 0 {
		if m.Session, err = r.uvarint(); err != nil {
			return err
		}
	}
	if bits&reqPlatform != 0 {
		if m.Platform, err = r.str(); err != nil {
			return err
		}
	}
	if bits&reqEvents != 0 {
		if m.Events, err = r.strs(); err != nil {
			return err
		}
	}
	if bits&reqWorkload != 0 {
		if m.Workload, err = r.str(); err != nil {
			return err
		}
	}
	if bits&reqN != 0 {
		n, err := r.zigzag()
		if err != nil {
			return err
		}
		m.N = int(n)
	}
	if bits&reqValues != 0 {
		if m.Values, err = r.i64s(); err != nil {
			return err
		}
	}
	if bits&reqLabel != 0 {
		if m.Label, err = r.str(); err != nil {
			return err
		}
	}
	if bits&reqVersion != 0 {
		v, err := r.zigzag()
		if err != nil {
			return err
		}
		m.Version = int(v)
	}
	if bits&reqCodec != 0 {
		if m.Codec, err = r.str(); err != nil {
			return err
		}
	}
	if bits&reqFrom != 0 {
		if m.From, err = r.zigzag(); err != nil {
			return err
		}
	}
	if bits&reqTo != 0 {
		if m.To, err = r.zigzag(); err != nil {
			return err
		}
	}
	if bits&reqStep != 0 {
		if m.Step, err = r.zigzag(); err != nil {
			return err
		}
	}
	if bits&reqDerive != 0 {
		if m.Derive, err = r.strs(); err != nil {
			return err
		}
	}
	if bits&reqSessions != 0 {
		if m.Sessions, err = r.u64s(); err != nil {
			return err
		}
	}
	if bits&reqLabels != 0 {
		if m.Labels, err = r.strs(); err != nil {
			return err
		}
	}
	return nil
}

// Response field presence bits, in encoding order. respOK carries the
// boolean itself: the bit set means OK == true.
const (
	respOp = 1 << iota
	respOK
	respError
	respSession
	respPlatform
	respEvents
	respValues
	respRealUsec
	respSeq
	respProtocol
	respSource
	respStats
	respSeries
	respCodec
	respHists
	respMetrics
	respUnits
	respDValues
	respDerived
	respSessions
	respIdx
	respBase
	respTrace
	respSlow

	respKnown = respSlow<<1 - 1
)

func appendResponse(dst []byte, m *Response) []byte {
	var bits uint64
	setIf := func(cond bool, bit uint64) {
		if cond {
			bits |= bit
		}
	}
	setIf(m.Op != "", respOp)
	setIf(m.OK, respOK)
	setIf(m.Error != "", respError)
	setIf(m.Session != 0, respSession)
	setIf(m.Platform != "", respPlatform)
	setIf(len(m.Events) > 0, respEvents)
	setIf(len(m.Values) > 0, respValues)
	setIf(m.RealUsec != 0, respRealUsec)
	setIf(m.Seq != 0, respSeq)
	setIf(m.Protocol != 0, respProtocol)
	setIf(m.Source != "", respSource)
	setIf(len(m.Stats) > 0, respStats)
	setIf(len(m.Series) > 0, respSeries)
	setIf(m.Codec != "", respCodec)
	setIf(len(m.Hists) > 0, respHists)
	setIf(len(m.Metrics) > 0, respMetrics)
	setIf(len(m.Units) > 0, respUnits)
	setIf(len(m.DValues) > 0, respDValues)
	setIf(len(m.Derived) > 0, respDerived)
	setIf(len(m.Sessions) > 0, respSessions)
	setIf(len(m.Idx) > 0, respIdx)
	setIf(m.Base != 0, respBase)
	setIf(m.TraceID != 0, respTrace)
	setIf(len(m.Slow) > 0, respSlow)

	dst = binary.AppendUvarint(dst, bits)
	if bits&respOp != 0 {
		dst = appendStr(dst, m.Op)
	}
	if bits&respError != 0 {
		dst = appendStr(dst, m.Error)
	}
	if bits&respSession != 0 {
		dst = binary.AppendUvarint(dst, m.Session)
	}
	if bits&respPlatform != 0 {
		dst = appendStr(dst, m.Platform)
	}
	if bits&respEvents != 0 {
		dst = appendStrs(dst, m.Events)
	}
	if bits&respValues != 0 {
		dst = appendI64s(dst, m.Values)
	}
	if bits&respRealUsec != 0 {
		dst = binary.AppendUvarint(dst, m.RealUsec)
	}
	if bits&respSeq != 0 {
		dst = binary.AppendUvarint(dst, m.Seq)
	}
	if bits&respProtocol != 0 {
		dst = appendZigzag(dst, int64(m.Protocol))
	}
	if bits&respSource != 0 {
		dst = appendStr(dst, m.Source)
	}
	if bits&respStats != 0 {
		dst = appendStats(dst, m.Stats)
	}
	if bits&respSeries != 0 {
		dst = appendSeries(dst, m.Series)
	}
	if bits&respCodec != 0 {
		dst = appendStr(dst, m.Codec)
	}
	if bits&respHists != 0 {
		dst = appendHists(dst, m.Hists)
	}
	if bits&respMetrics != 0 {
		dst = appendStrs(dst, m.Metrics)
	}
	if bits&respUnits != 0 {
		dst = appendStrs(dst, m.Units)
	}
	if bits&respDValues != 0 {
		dst = appendF64s(dst, m.DValues)
	}
	if bits&respDerived != 0 {
		dst = appendDerived(dst, m.Derived)
	}
	if bits&respSessions != 0 {
		dst = appendU64s(dst, m.Sessions)
	}
	if bits&respIdx != 0 {
		dst = appendU32s(dst, m.Idx)
	}
	if bits&respBase != 0 {
		dst = binary.AppendUvarint(dst, m.Base)
	}
	if bits&respTrace != 0 {
		dst = binary.AppendUvarint(dst, m.TraceID)
	}
	if bits&respSlow != 0 {
		dst = appendSlow(dst, m.Slow)
	}
	return dst
}

func readResponse(r *binReader, m *Response) error {
	bits, err := r.uvarint()
	if err != nil {
		return err
	}
	if bits&^uint64(respKnown) != 0 {
		return fmt.Errorf("unknown response field bits %#x", bits&^uint64(respKnown))
	}
	*m = Response{OK: bits&respOK != 0}
	if bits&respOp != 0 {
		if m.Op, err = r.str(); err != nil {
			return err
		}
	}
	if bits&respError != 0 {
		if m.Error, err = r.str(); err != nil {
			return err
		}
	}
	if bits&respSession != 0 {
		if m.Session, err = r.uvarint(); err != nil {
			return err
		}
	}
	if bits&respPlatform != 0 {
		if m.Platform, err = r.str(); err != nil {
			return err
		}
	}
	if bits&respEvents != 0 {
		if m.Events, err = r.strs(); err != nil {
			return err
		}
	}
	if bits&respValues != 0 {
		if m.Values, err = r.i64s(); err != nil {
			return err
		}
	}
	if bits&respRealUsec != 0 {
		if m.RealUsec, err = r.uvarint(); err != nil {
			return err
		}
	}
	if bits&respSeq != 0 {
		if m.Seq, err = r.uvarint(); err != nil {
			return err
		}
	}
	if bits&respProtocol != 0 {
		p, err := r.zigzag()
		if err != nil {
			return err
		}
		m.Protocol = int(p)
	}
	if bits&respSource != 0 {
		if m.Source, err = r.str(); err != nil {
			return err
		}
	}
	if bits&respStats != 0 {
		if m.Stats, err = r.stats(); err != nil {
			return err
		}
	}
	if bits&respSeries != 0 {
		if m.Series, err = r.series(); err != nil {
			return err
		}
	}
	if bits&respCodec != 0 {
		if m.Codec, err = r.str(); err != nil {
			return err
		}
	}
	if bits&respHists != 0 {
		if m.Hists, err = r.hists(); err != nil {
			return err
		}
	}
	if bits&respMetrics != 0 {
		if m.Metrics, err = r.strs(); err != nil {
			return err
		}
	}
	if bits&respUnits != 0 {
		if m.Units, err = r.strs(); err != nil {
			return err
		}
	}
	if bits&respDValues != 0 {
		if m.DValues, err = r.f64s(); err != nil {
			return err
		}
	}
	if bits&respDerived != 0 {
		if m.Derived, err = r.derived(); err != nil {
			return err
		}
	}
	if bits&respSessions != 0 {
		if m.Sessions, err = r.u64s(); err != nil {
			return err
		}
	}
	if bits&respIdx != 0 {
		if m.Idx, err = r.u32s(); err != nil {
			return err
		}
	}
	if bits&respBase != 0 {
		if m.Base, err = r.uvarint(); err != nil {
			return err
		}
	}
	if bits&respTrace != 0 {
		if m.TraceID, err = r.uvarint(); err != nil {
			return err
		}
	}
	if bits&respSlow != 0 {
		if m.Slow, err = r.slow(); err != nil {
			return err
		}
	}
	return nil
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
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
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
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
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

// binReader is a bounds-checked cursor over one frame's payload. Every
// count it reads is sanity-checked against the bytes remaining (each
// element costs at least one byte), so a corrupt count cannot demand
// an allocation larger than the frame that carried it.
type binReader struct {
	buf []byte
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, errTruncated
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *binReader) zigzag() (int64, error) {
	u, err := r.uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

func (r *binReader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.buf)) {
		return 0, fmt.Errorf("count %d exceeds %d payload bytes", n, len(r.buf))
	}
	return int(n), nil
}

func (r *binReader) str() (string, error) {
	n, err := r.count()
	if err != nil {
		return "", err
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}

func (r *binReader) strs() ([]string, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *binReader) u64s() ([]uint64, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		if out[i], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *binReader) u32s() ([]uint32, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("index %d overflows uint32", v)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

func (r *binReader) i64s() ([]int64, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		if out[i], err = r.zigzag(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *binReader) stats() (map[string]uint64, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func (r *binReader) hists() (map[string]telemetry.Summary, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make(map[string]telemetry.Summary, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		var h telemetry.Summary
		if h.Count, err = r.uvarint(); err != nil {
			return nil, err
		}
		if h.Sum, err = r.zigzag(); err != nil {
			return nil, err
		}
		if h.Min, err = r.zigzag(); err != nil {
			return nil, err
		}
		if h.Max, err = r.zigzag(); err != nil {
			return nil, err
		}
		if h.P50, err = r.zigzag(); err != nil {
			return nil, err
		}
		if h.P90, err = r.zigzag(); err != nil {
			return nil, err
		}
		if h.P99, err = r.zigzag(); err != nil {
			return nil, err
		}
		out[k] = h
	}
	return out, nil
}

func (r *binReader) series() ([]tsdb.Series, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]tsdb.Series, n)
	for i := range out {
		if out[i].Event, err = r.str(); err != nil {
			return nil, err
		}
		if out[i].Width, err = r.zigzag(); err != nil {
			return nil, err
		}
		nb, err := r.count()
		if err != nil {
			return nil, err
		}
		buckets := make([]tsdb.Bucket, nb)
		for j := range buckets {
			bk := &buckets[j]
			if bk.Start, err = r.zigzag(); err != nil {
				return nil, err
			}
			if bk.Count, err = r.uvarint(); err != nil {
				return nil, err
			}
			if bk.Min, err = r.zigzag(); err != nil {
				return nil, err
			}
			if bk.Max, err = r.zigzag(); err != nil {
				return nil, err
			}
			if bk.Sum, err = r.zigzag(); err != nil {
				return nil, err
			}
			if bk.Last, err = r.zigzag(); err != nil {
				return nil, err
			}
		}
		out[i].Buckets = buckets
	}
	return out, nil
}

func (r *binReader) f64() (float64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

func (r *binReader) f64s() ([]float64, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = r.f64(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *binReader) derived() ([]DerivedSeries, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]DerivedSeries, n)
	for i := range out {
		if out[i].Metric, err = r.str(); err != nil {
			return nil, err
		}
		if out[i].Unit, err = r.str(); err != nil {
			return nil, err
		}
		np, err := r.count()
		if err != nil {
			return nil, err
		}
		points := make([]DerivedPoint, np)
		for j := range points {
			if points[j].Start, err = r.zigzag(); err != nil {
				return nil, err
			}
			if points[j].Value, err = r.f64(); err != nil {
				return nil, err
			}
		}
		out[i].Points = points
	}
	return out, nil
}

func (r *binReader) slow() ([]SlowSample, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]SlowSample, n)
	for i := range out {
		if out[i].Op, err = r.str(); err != nil {
			return nil, err
		}
		if out[i].Session, err = r.uvarint(); err != nil {
			return nil, err
		}
		if out[i].NS, err = r.zigzag(); err != nil {
			return nil, err
		}
		if out[i].TraceID, err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
