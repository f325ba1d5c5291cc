// Package wire implements the framing shared by every network surface
// in the repository: perfometer's point stream (§2, Figure 2) and
// papid's counter-collection protocol. The default framing is
// newline-delimited JSON — one JSON value per line, trivially
// inspectable with nc/jq, resynchronizable by line, and cheap to
// produce. papid peers may negotiate the compact binary codec
// (binary.go) per connection; Encoder and Decoder switch codecs in
// place so the negotiation handshake and the upgraded stream share one
// buffered reader and writer.
//
// The framing layer is deliberately type-agnostic: perfometer streams
// perfometer.Point values, papid exchanges wire.Request/wire.Response
// pairs, and both go through the same Encoder/Decoder.
//
// How a JSON frame is made: a *Response whose set fields are all among
// those per-tick frames and plain replies use is appended by AppendJSON
// (json.go) without reflection; anything else — a STATS or QUERY reply,
// an error, a string json.Marshal would escape, a NaN — and every other
// type goes through json.Marshal. FuzzAppendJSON pins the two paths as
// byte-identical, so a client cannot tell which one wrote a frame.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// bufPool recycles frame encode buffers across Encoder.Encode and
// AppendFrame's binary scratch — the per-frame []byte that would
// otherwise be the steady-state allocation of a busy connection.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > 1<<16 {
		return // oversized one-offs are not worth pinning
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// AppendFrame appends one complete frame for v — a JSON line or a
// length-prefixed binary frame — to dst and returns the extended
// slice. It is the bytes-producing core shared by Encoder and papid's
// encode-once snapshot fan-out, which serializes each tick's frame
// exactly once and hands the same immutable bytes to every subscriber.
func AppendFrame(dst []byte, codec Codec, v any) ([]byte, error) {
	if r, ok := v.(*Response); ok {
		return AppendResponse(dst, codec, r)
	}
	if codec == CodecBinary {
		return appendBinaryFrame(dst, v)
	}
	return appendJSONFrame(dst, v)
}

// AppendResponse is AppendFrame for a *Response — papid's every reply
// and fan-out frame — and, unlike it, keeps no reference to r, so a
// caller's Response can live on its stack. A JSON frame is AppendJSON's
// when it takes r, json.Marshal's (of a copy) when it declines.
func AppendResponse(dst []byte, codec Codec, r *Response) ([]byte, error) {
	if codec == CodecBinary {
		return appendBinaryResponse(dst, r), nil
	}
	if b, ok := AppendJSON(dst, r); ok {
		return append(b, '\n'), nil
	}
	c := *r // json.Marshal's argument escapes; the copy does, r does not
	return appendJSONFrame(dst, &c)
}

// Encoder writes frames in the codec selected by SetCodec (JSON lines
// by default) — the client side's writer (server.Client, papirun,
// perfometer). Encodes from several goroutines are safe and come out as
// whole frames. papid does not write through it: every frame of a
// connection is serialized by AppendFrame into that connection's one
// queue and written by its one writer goroutine.
type Encoder struct {
	mu    sync.Mutex
	w     io.Writer
	codec Codec
}

// NewEncoder returns an Encoder framing onto w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// SetCodec switches the encoding of every subsequent frame — the
// writer half of the HELLO codec negotiation. Callers sequence the
// switch against in-flight Encodes (the negotiation reply is written
// before the switch).
func (e *Encoder) SetCodec(c Codec) {
	e.mu.Lock()
	e.codec = c
	e.mu.Unlock()
}

// Encode writes one frame.
func (e *Encoder) Encode(v any) error {
	bp := getBuf()
	e.mu.Lock()
	buf, err := AppendFrame((*bp)[:0], e.codec, v)
	if err == nil {
		_, err = e.w.Write(buf)
	}
	e.mu.Unlock()
	*bp = buf[:0]
	putBuf(bp)
	return err
}

// Decoder reads frames one at a time in the codec selected by
// SetCodec. In JSON mode a malformed frame poisons only its own line:
// Decode returns a *MalformedFrameError and the next call resumes at
// the following newline. This is what lets papid answer garbage with
// an error frame instead of dropping the connection. In binary mode a
// bad payload inside a well-delimited frame is equally recoverable,
// but a broken length prefix is fatal (Fatal on the error): with no
// trustworthy frame boundary there is nothing to resynchronize on.
//
// A read-deadline trip mid-frame is recoverable in both codecs: the
// partial bytes are stashed, the timeout surfaces unchanged, and the
// next Decode resumes the same frame where it left off. Without this,
// a slow but healthy writer whose frame straddled an idle-deadline
// check would have half its frame misread as garbage.
type Decoder struct {
	r       *bufio.Reader
	codec   Codec
	pending []byte // partial frame held across a deadline trip
}

// NewDecoder returns a Decoder framing from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// SetCodec switches the decoding of every subsequent frame — the
// reader half of the HELLO codec negotiation. The underlying buffered
// reader is retained, so bytes the peer pipelined behind the
// negotiation frame are not lost.
func (d *Decoder) SetCodec(c Codec) { d.codec = c }

// Codec reports the current frame codec.
func (d *Decoder) Codec() Codec { return d.codec }

// Decode reads the next frame into v. A frame that cannot be decoded
// yields a *MalformedFrameError (check IsFatalMalformed for whether
// the stream can continue); the Decoder itself remains usable unless
// the error was fatal. A timeout (net.Error with Timeout true)
// surfaces as-is with any partial frame preserved for the next call.
func (d *Decoder) Decode(v any) error {
	if d.codec == CodecBinary {
		return d.decodeBinary(v)
	}
	for {
		line, err := d.r.ReadBytes('\n')
		if len(d.pending) > 0 {
			line = append(d.pending, line...)
			d.pending = nil
		}
		if err != nil && IsTimeout(err) {
			d.pending = line
			return err
		}
		frame := bytes.TrimSpace(line)
		if len(frame) == 0 {
			if err != nil {
				return err
			}
			continue
		}
		if err != nil {
			// A final line cut before its newline is malformed even when
			// it parses: the sender counts a frame it could not finish
			// as dropped. Surfacing it as such lets servers reply before
			// the follow-up Decode reports the stream error.
			return &MalformedFrameError{Err: fmt.Errorf("frame cut before its newline: %w", err)}
		}
		if jerr := json.Unmarshal(frame, v); jerr != nil {
			return &MalformedFrameError{Err: jerr}
		}
		return nil
	}
}

// decodeBinary accumulates bytes until one whole length-prefixed frame
// is pending, then decodes its payload. The pending buffer doubles as
// the decoder's scratch: it persists across calls (and deadline
// trips), so steady-state decoding reuses one grown buffer instead of
// allocating per frame.
func (d *Decoder) decodeBinary(v any) error {
	for {
		if len(d.pending) > 0 {
			size, n := binary.Uvarint(d.pending)
			switch {
			case n < 0:
				d.pending = nil
				return &MalformedFrameError{Fatal: true,
					Err: errors.New("binary frame length varint overflows")}
			case n > 0 && size > MaxFrameBytes:
				d.pending = nil
				return &MalformedFrameError{Fatal: true,
					Err: fmt.Errorf("binary frame of %d bytes exceeds the %d-byte cap", size, MaxFrameBytes)}
			case n > 0 && uint64(len(d.pending)-n) >= size:
				payload := d.pending[n : n+int(size)]
				err := decodeBinaryPayload(payload, v)
				d.pending = d.pending[:copy(d.pending, d.pending[n+int(size):])]
				if err != nil {
					// The frame boundary held; only the content is bad.
					return &MalformedFrameError{Err: err}
				}
				return nil
			case n == 0 && len(d.pending) >= binary.MaxVarintLen64:
				d.pending = nil
				return &MalformedFrameError{Fatal: true,
					Err: errors.New("binary frame length varint never terminates")}
			}
		}
		if err := d.fill(); err != nil {
			if IsTimeout(err) {
				return err // partial frame stays pending for the retry
			}
			if len(d.pending) > 0 && IsEOF(err) {
				d.pending = nil
				return &MalformedFrameError{Fatal: true, Err: io.ErrUnexpectedEOF}
			}
			return err
		}
	}
}

// fill appends at least one newly arrived byte to pending, draining
// whatever the buffered reader already holds in one copy.
func (d *Decoder) fill() error {
	if d.r.Buffered() == 0 {
		if _, err := d.r.Peek(1); err != nil && d.r.Buffered() == 0 {
			return err
		}
	}
	n := d.r.Buffered()
	chunk, _ := d.r.Peek(n)
	d.pending = append(d.pending, chunk...)
	d.r.Discard(n)
	return nil
}

// MalformedFrameError reports one undecodable frame. Unless Fatal is
// set, the stream itself is still healthy.
type MalformedFrameError struct {
	Err error
	// Fatal marks a framing-level failure (broken binary length
	// prefix) after which the stream has no resynchronization point;
	// callers should answer once and close.
	Fatal bool
}

func (e *MalformedFrameError) Error() string {
	return fmt.Sprintf("wire: malformed frame: %v", e.Err)
}

func (e *MalformedFrameError) Unwrap() error { return e.Err }

// IsMalformed reports whether err is a bad frame on an otherwise
// healthy stream — recoverable (unless IsFatalMalformed), unlike an io
// error.
func IsMalformed(err error) bool {
	var m *MalformedFrameError
	return errors.As(err, &m)
}

// IsFatalMalformed reports whether err is a malformed frame the stream
// cannot recover from — binary framing with an untrustworthy length
// prefix. papid answers these with one ERROR frame, then evicts.
func IsFatalMalformed(err error) bool {
	var m *MalformedFrameError
	return errors.As(err, &m) && m.Fatal
}

// IsEOF reports whether err marks the clean end of a frame stream.
func IsEOF(err error) bool {
	return errors.Is(err, io.EOF)
}

// IsTimeout reports whether err is a deadline trip (a net.Error with
// Timeout true) — the signal papid's idle/write eviction and the
// client's per-request deadline both key off.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
