package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/tsdb"
)

// On-disk record framing, shared by WAL and segment files:
//
//	[u32le payload length][u32le CRC-32C of payload][payload]
//
// The CRC is Castagnoli (hardware-accelerated on every platform we
// care about) over the payload only; the length field is implicitly
// validated by the CRC failing when a torn write corrupts it, plus an
// explicit sanity cap so a garbage length cannot force a huge read.
// The first payload byte is the record type; the rest is the same
// zigzag-varint vocabulary the in-memory delta-of-delta blocks use —
// sealed block records embed the block's encoded buffer verbatim, so
// sealing persists bytes without re-encoding.
const (
	recHeaderLen = 8
	// maxRecordLen caps one record: a sealed block is at most
	// BlockSamples * ~20 bytes, rollup runs a few KiB; 16 MiB is far
	// beyond anything legitimate and small enough to reject garbage.
	maxRecordLen = 16 << 20
)

// Record types (first payload byte). 'I' is taken: segments finalized
// before the footer alone marked a finalize carry an index record of
// that type behind their last record, where no load looks.
const (
	recRow       = 'T' // one appended tick row (WAL files)
	recBlock     = 'B' // one sealed delta-of-delta block (segment files)
	recRollup    = 'R' // one run of rollup buckets (compacted segments)
	recWatermark = 'W' // per-series sealed-through sequence (compacted segments)
	recCompact   = 'C' // compaction provenance: which segments this one replaces
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks a record that is short, oversized or CRC-corrupt —
// the expected shape of a torn tail, where scanning stops.
var errTorn = errors.New("wal: torn or corrupt record")

// appendFrame wraps payload in the record framing.
func appendFrame(dst, payload []byte) []byte {
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame extracts the record at buf[off:], returning the payload
// (aliasing buf) and the offset of the next record. errTorn covers
// every torn-tail shape: truncated header, truncated payload, absurd
// length, CRC mismatch.
func readFrame(buf []byte, off int) (payload []byte, next int, err error) {
	if off < 0 || off+recHeaderLen > len(buf) {
		return nil, 0, errTorn
	}
	n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
	crc := binary.LittleEndian.Uint32(buf[off+4 : off+8])
	if n > maxRecordLen || off+recHeaderLen+n > len(buf) {
		return nil, 0, errTorn
	}
	payload = buf[off+recHeaderLen : off+recHeaderLen+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, errTorn
	}
	return payload, off + recHeaderLen + n, nil
}

// zigzag varint helpers — the same mapping tsdb's block encoding uses.
func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64((v<<1)^(v>>63)))
}

// reader decodes one payload sequentially.
type reader struct {
	buf []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errTorn
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.err = errTorn
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) str() string { return string(r.bytes()) }

// rowRecord is one appended tick row: every event of one session at
// one timestamp, exactly the shape papid's tick loop produces.
type rowRecord struct {
	seq     uint64
	session uint64
	ts      int64
	events  []string
	vals    []int64
}

func appendRow(dst []byte, seq, session uint64, ts int64, events []string, vals []int64) []byte {
	dst = append(dst, recRow)
	dst = appendUvarint(dst, seq)
	dst = appendUvarint(dst, session)
	dst = appendZigzag(dst, ts)
	dst = appendUvarint(dst, uint64(len(events)))
	for i, ev := range events {
		dst = appendUvarint(dst, uint64(len(ev)))
		dst = append(dst, ev...)
		dst = appendZigzag(dst, vals[i])
	}
	return dst
}

func decodeRow(payload []byte) (rowRecord, error) {
	var row rowRecord
	if len(payload) == 0 || payload[0] != recRow {
		return row, errTorn
	}
	r := reader{buf: payload[1:]}
	row.seq = r.uvarint()
	row.session = r.uvarint()
	row.ts = r.zigzag()
	n := r.uvarint()
	if r.err != nil || n > 1<<16 || n > uint64(len(r.buf))/2 { // an event takes two bytes or more
		return row, errTorn
	}
	row.events = make([]string, 0, n)
	row.vals = make([]int64, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		row.events = append(row.events, r.str())
		row.vals = append(row.vals, r.zigzag())
	}
	return row, r.err
}

// blockRecord persists one sealed block; buf is the delta-of-delta
// encoding verbatim, so neither a persist pass nor a replay re-encodes.
func appendBlock(dst []byte, sb tsdb.SealedBlock) []byte {
	dst = append(dst, recBlock)
	dst = appendUvarint(dst, sb.Key.Session)
	dst = appendUvarint(dst, uint64(len(sb.Key.Event)))
	dst = append(dst, sb.Key.Event...)
	dst = appendZigzag(dst, sb.MinTS)
	dst = appendZigzag(dst, sb.MaxTS)
	dst = appendUvarint(dst, uint64(sb.N))
	dst = appendUvarint(dst, sb.LastSeq)
	dst = appendUvarint(dst, uint64(len(sb.Buf)))
	return append(dst, sb.Buf...)
}

func decodeBlock(payload []byte) (tsdb.SealedBlock, error) {
	r := reader{buf: payload[1:]}
	var sb tsdb.SealedBlock
	sb.Key.Session = r.uvarint()
	sb.Key.Event = r.str()
	sb.MinTS = r.zigzag()
	sb.MaxTS = r.zigzag()
	sb.N = int(r.uvarint())
	sb.LastSeq = r.uvarint()
	sb.Buf = r.bytes()
	if r.err == nil && (sb.N < 0 || sb.N > 1<<24) {
		return sb, errTorn
	}
	return sb, r.err
}

// rollupRecord persists one run of grid-aligned buckets of one width —
// what compaction distills evicted raw blocks into.
type rollupRecord struct {
	key     tsdb.SeriesKey
	width   int64
	buckets []tsdb.Bucket
}

func appendRollup(dst []byte, rec rollupRecord) []byte {
	dst = append(dst, recRollup)
	dst = appendUvarint(dst, rec.key.Session)
	dst = appendUvarint(dst, uint64(len(rec.key.Event)))
	dst = append(dst, rec.key.Event...)
	dst = appendZigzag(dst, rec.width)
	dst = appendUvarint(dst, uint64(len(rec.buckets)))
	for _, bk := range rec.buckets {
		dst = appendZigzag(dst, bk.Start)
		dst = appendUvarint(dst, bk.Count)
		dst = appendZigzag(dst, bk.Min)
		dst = appendZigzag(dst, bk.Max)
		dst = appendZigzag(dst, bk.Sum)
		dst = appendZigzag(dst, bk.Last)
	}
	return dst
}

func decodeRollup(payload []byte) (rollupRecord, error) {
	r := reader{buf: payload[1:]}
	var rec rollupRecord
	rec.key.Session = r.uvarint()
	rec.key.Event = r.str()
	rec.width = r.zigzag()
	n := r.uvarint()
	if r.err != nil || n > 1<<24 || n > uint64(len(r.buf))/6 { // a bucket takes six bytes or more
		return rec, errTorn
	}
	rec.buckets = make([]tsdb.Bucket, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		var bk tsdb.Bucket
		bk.Start = r.zigzag()
		bk.Count = r.uvarint()
		bk.Min = r.zigzag()
		bk.Max = r.zigzag()
		bk.Sum = r.zigzag()
		bk.Last = r.zigzag()
		rec.buckets = append(rec.buckets, bk)
	}
	return rec, r.err
}

// watermarkRecord preserves a series' sealed-through sequence when
// compaction discards the raw blocks that carried it: replay must
// still skip WAL rows whose samples now exist only at rollup
// resolution.
type watermarkRecord struct {
	key tsdb.SeriesKey
	seq uint64
}

func appendWatermark(dst []byte, w watermarkRecord) []byte {
	dst = append(dst, recWatermark)
	dst = appendUvarint(dst, w.key.Session)
	dst = appendUvarint(dst, uint64(len(w.key.Event)))
	dst = append(dst, w.key.Event...)
	dst = appendUvarint(dst, w.seq)
	return dst
}

func decodeWatermark(payload []byte) (watermarkRecord, error) {
	r := reader{buf: payload[1:]}
	var w watermarkRecord
	w.key.Session = r.uvarint()
	w.key.Event = r.str()
	w.seq = r.uvarint()
	return w, r.err
}

// compactRecord declares a compacted segment's provenance: every
// segment whose file sequence is at or below replacedThrough has been
// folded into this one. Loading honors it only from a cleanly
// finalized segment — a torn compaction output is discarded and its
// inputs stay live, so a crash mid-compaction never loses data, and a
// crash after finalize but before the inputs were unlinked never
// double-counts it.
func appendCompactMeta(dst []byte, replacedThrough uint64) []byte {
	dst = append(dst, recCompact)
	return appendUvarint(dst, replacedThrough)
}

func decodeCompactMeta(payload []byte) (uint64, error) {
	r := reader{buf: payload[1:]}
	v := r.uvarint()
	return v, r.err
}

// fileHeader opens every WAL and segment file; version bumps here
// rather than silently misparsing.
func fileHeader(magic string) []byte { return []byte(magic) }

func checkHeader(buf []byte, magic string) error {
	if len(buf) < len(magic) || string(buf[:len(magic)]) != magic {
		return fmt.Errorf("wal: bad file header (want %q)", magic)
	}
	return nil
}

const (
	walMagic = "PWAL0001"
	segMagic = "PSEG0001"
	idxMagic = "PSEGIDX1"
)
