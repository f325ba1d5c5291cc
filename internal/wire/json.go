// The JSON frame without reflection. A papid fan-out frame (SNAPSHOT,
// DELTA, DERIVED) or plain reply sets a handful of Response's 24
// fields; json.Marshal finds them by walking all 24 through reflection
// and then hands back a slice the caller copies. AppendJSON writes those
// frames straight into the caller's buffer instead, byte for byte what
// json.Marshal writes (FuzzAppendJSON pins the two together), and
// declines every response it could get wrong, which then goes to
// json.Marshal as before.
package wire

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendJSON appends r's JSON encoding, exactly json.Marshal(r) without
// a newline, to dst and reports true. It covers the fields per-tick
// frames and plain replies use (op, ok, session, events, values,
// real_usec, seq, source, metrics, units, dvalues, idx, base, trace)
// with their omitempty rules, in struct order. It returns dst unchanged
// and false — the caller marshals — when r sets any other field, holds
// a string json.Marshal would escape (anything outside printable ASCII,
// or one of " \ < > &), or a float it refuses (NaN, ±Inf).
func AppendJSON(dst []byte, r *Response) ([]byte, bool) {
	if r.Error != "" || r.Platform != "" || r.Protocol != 0 || len(r.Stats) > 0 ||
		len(r.Hists) > 0 || len(r.Series) > 0 || r.Codec != "" || len(r.Derived) > 0 ||
		len(r.Sessions) > 0 || len(r.Slow) > 0 ||
		!plain(r.Op) || !plain(r.Source) || !allPlain(r.Events) ||
		!allPlain(r.Metrics) || !allPlain(r.Units) || !allFinite(r.DValues) {
		return dst, false
	}
	b := append(dst, `{"op":"`...)
	b = append(b, r.Op...)
	b = append(b, `","ok":`...)
	b = strconv.AppendBool(b, r.OK)
	b = appendUintField(b, `,"session":`, r.Session)
	if len(r.Events) > 0 {
		b = appendStrings(append(b, `,"events":`...), r.Events)
	}
	if len(r.Values) > 0 {
		b = append(b, `,"values":`...)
		for i, v := range r.Values {
			b = append(b, listSep(i))
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
	}
	b = appendUintField(b, `,"real_usec":`, r.RealUsec)
	b = appendUintField(b, `,"seq":`, r.Seq)
	if r.Source != "" {
		b = append(b, `,"source":"`...)
		b = append(b, r.Source...)
		b = append(b, '"')
	}
	if len(r.Metrics) > 0 {
		b = appendStrings(append(b, `,"metrics":`...), r.Metrics)
	}
	if len(r.Units) > 0 {
		b = appendStrings(append(b, `,"units":`...), r.Units)
	}
	if len(r.DValues) > 0 {
		b = append(b, `,"dvalues":`...)
		for i, v := range r.DValues {
			b = appendFloat(append(b, listSep(i)), v)
		}
		b = append(b, ']')
	}
	if len(r.Idx) > 0 {
		b = append(b, `,"idx":`...)
		for i, v := range r.Idx {
			b = append(b, listSep(i))
			b = strconv.AppendUint(b, uint64(v), 10)
		}
		b = append(b, ']')
	}
	b = appendUintField(b, `,"base":`, r.Base)
	b = appendUintField(b, `,"trace":`, r.TraceID)
	return append(b, '}'), true
}

// appendJSONFrame is the reflective path: json.Marshal(v), then a
// newline.
func appendJSONFrame(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	dst = append(dst, b...)
	return append(dst, '\n'), nil
}

// appendUintField appends key and v unless v is zero (omitempty).
func appendUintField(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

// appendStrings appends a non-empty list of plain strings.
func appendStrings(b []byte, ss []string) []byte {
	for i, s := range ss {
		b = append(b, listSep(i), '"')
		b = append(b, s...)
		b = append(b, '"')
	}
	return append(b, ']')
}

// listSep is what goes before element i of a JSON array.
func listSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// appendFloat is encoding/json's float64 encoder for a finite v: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up, with a
// two-digit negative exponent shortened to one (e-07 → e-7).
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// plain reports whether json.Marshal writes s as itself between quotes:
// printable ASCII, none of the characters it escapes (" and \ always,
// < > & under its default HTML escaping).
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

func allPlain(ss []string) bool {
	for _, s := range ss {
		if !plain(s) {
			return false
		}
	}
	return true
}

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
