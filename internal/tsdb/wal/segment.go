package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/tsdb"
)

// Segment files hold sealed data: 'B' records (raw delta-of-delta
// blocks, written as the store seals them), and for compacted segments
// 'R' rollup runs plus 'W' watermarks. A segment being written is a
// plain append-only file; when it fills (or at graceful shutdown) it
// is finalized — an 'I' index record and a fixed footer are appended,
// the file is fsynced and memory-mapped, and every raw block the store
// still holds is remapped onto the mapping so the heap copies can be
// collected. A segment that was being written when the process died
// has no footer; loading falls back to a record scan that tolerates a
// torn tail, and the file is left as-is (new seals go to a new file).
//
// Footer layout, fixed 16 bytes at EOF:
//
//	[u64le offset of the 'I' index record][8-byte idxMagic]
//
// The 'I' payload is: 'I', uvarint record count, then delta-encoded
// uvarint offsets of every record. The index both proves the segment
// was cleanly finalized and lets loading slice records without
// re-scanning.

const footerLen = 16

// blockRef locates one raw block inside a loaded or written segment.
type blockRef struct {
	sb tsdb.SealedBlock // Buf aliases the segment mapping (or heap copy)
}

// segment is one immutable on-disk segment, loaded or just finalized.
type segment struct {
	path      string
	seq       uint64 // file sequence, from the name
	size      int64
	maxTS     int64 // newest sample covered, for age-based compaction
	raw       bool  // holds 'B' records (compaction input)
	finalized bool  // had a valid footer on load (or was finalized live)
	// replacedThrough, when non-zero, marks a compaction output: every
	// segment with seq at or below it is superseded by this one.
	replacedThrough uint64
	data            []byte
	mapped          bool
	blocks          []blockRef
	rollups         []rollupRecord
	marks           []watermarkRecord
	torn            int // records lost to a torn tail on load
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.seg", seq))
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seq))
}

// parseSeq extracts the numeric sequence from seg-XXXXXXXX.seg /
// wal-XXXXXXXX.log names; ok=false for anything else.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+8+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+8] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// loadSegment maps a segment file and parses its records — via the
// footer index when the segment was cleanly finalized, otherwise by
// scanning and stopping at the first torn record.
func loadSegment(path string, seq uint64) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	data, mapped, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("wal: mmap %s: %w", path, err)
	}
	s := &segment{path: path, seq: seq, size: size, data: data, mapped: mapped}
	if err := s.parse(); err != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return s, nil
}

// parse fills the segment from s.data, the file's bytes.
func (s *segment) parse() error {
	data := s.data
	if err := checkHeader(data, segMagic); err != nil {
		// Not even a header: a crash right after create. Treat as empty.
		s.torn = 1
		return nil
	}
	offsets, finalized := s.indexOffsets()
	s.finalized = finalized
	if finalized {
		for _, off := range offsets {
			payload, _, err := readFrame(data, int(off))
			if err != nil || len(payload) == 0 {
				return fmt.Errorf("corrupt record at %d in finalized segment", off)
			}
			if err := s.addRecord(payload); err != nil {
				return err
			}
		}
		return nil
	}
	// No footer: scan until torn tail.
	off := len(segMagic)
	for off < len(data) {
		payload, next, err := readFrame(data, off)
		if err != nil {
			s.torn = 1
			break
		}
		if len(payload) == 0 {
			s.torn = 1
			break
		}
		if err := s.addRecord(payload); err != nil {
			s.torn = 1
			break
		}
		off = next
	}
	return nil
}

// indexOffsets validates the footer and returns every record offset,
// each inside the file and past its header. An index that names any
// other offset does not prove a clean finalize: the segment loads by
// scan instead.
func (s *segment) indexOffsets() ([]uint64, bool) {
	if len(s.data) < footerLen {
		return nil, false
	}
	tail := s.data[len(s.data)-footerLen:]
	if string(tail[8:]) != idxMagic {
		return nil, false
	}
	idxOff := binary.LittleEndian.Uint64(tail[:8])
	if idxOff >= uint64(len(s.data)) {
		return nil, false
	}
	payload, _, err := readFrame(s.data, int(idxOff))
	if err != nil || len(payload) == 0 || payload[0] != recIndex {
		return nil, false
	}
	r := reader{buf: payload[1:]}
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)) { // an offset takes a byte or more
		return nil, false
	}
	offsets := make([]uint64, 0, n)
	var off uint64
	for i := uint64(0); i < n; i++ {
		d := r.uvarint()
		if d >= uint64(len(s.data))-off { // off+d past the file, or past 2^64
			return nil, false
		}
		if off += d; off < uint64(len(segMagic)) {
			return nil, false
		}
		offsets = append(offsets, off)
	}
	if r.err != nil {
		return nil, false
	}
	return offsets, true
}

func (s *segment) addRecord(payload []byte) error {
	switch payload[0] {
	case recBlock:
		sb, err := decodeBlock(payload)
		if err != nil {
			return err
		}
		s.raw = true
		s.blocks = append(s.blocks, blockRef{sb: sb})
		if sb.MaxTS > s.maxTS {
			s.maxTS = sb.MaxTS
		}
	case recRollup:
		rec, err := decodeRollup(payload)
		if err != nil {
			return err
		}
		s.rollups = append(s.rollups, rec)
		if n := len(rec.buckets); n > 0 {
			if end := rec.buckets[n-1].Start + rec.width; end > s.maxTS {
				s.maxTS = end
			}
		}
	case recWatermark:
		w, err := decodeWatermark(payload)
		if err != nil {
			return err
		}
		s.marks = append(s.marks, w)
	case recCompact:
		v, err := decodeCompactMeta(payload)
		if err != nil {
			return err
		}
		s.replacedThrough = v
	default:
		return fmt.Errorf("unknown segment record type %q", payload[0])
	}
	return nil
}

// segmentWriter accumulates sealed blocks into the active segment file.
type segmentWriter struct {
	f       *os.File
	wr      io.Writer // f, possibly wrapped by Options.wrapSeg (tests)
	path    string
	seq     uint64
	size    int64
	maxTS   int64
	raw     bool
	offsets []int64 // record offsets, for the finalize index
	// entries remembers where each raw block's encoded buffer landed in
	// the file, so finalize can hand the store mmap-backed replacements.
	entries []writerEntry
	dirty   bool // bytes written since last fsync
	scratch []byte
}

type writerEntry struct {
	key          tsdb.SeriesKey
	minTS, maxTS int64
	n            int
	lastSeq      uint64
	bufOff       int64
	bufLen       int
}

func createSegment(dir string, seq uint64) (*segmentWriter, error) {
	path := segPath(dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(fileHeader(segMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return &segmentWriter{f: f, wr: f, path: path, seq: seq, size: int64(len(segMagic)), dirty: true}, nil
}

// writeRecord frames and appends one payload, tracking its offset. On
// error the writer's size/offsets deliberately do not advance — but
// partial bytes may already be on disk, so the caller must abandon the
// writer (abandonWriterLocked) rather than keep appending records the
// finalize index would then locate at the wrong offsets.
func (w *segmentWriter) writeRecord(payload []byte) error {
	rec := appendFrame(w.scratch[:0], payload)
	w.scratch = rec[:0]
	if _, err := w.wr.Write(rec); err != nil {
		return err
	}
	w.offsets = append(w.offsets, w.size)
	w.size += int64(len(rec))
	w.dirty = true
	return nil
}

// writeBlock appends one sealed block record.
func (w *segmentWriter) writeBlock(sb tsdb.SealedBlock) error {
	payload, bufOff := appendBlock(nil, sb)
	recStart := w.size
	if err := w.writeRecord(payload); err != nil {
		return err
	}
	w.raw = true
	if sb.MaxTS > w.maxTS {
		w.maxTS = sb.MaxTS
	}
	w.entries = append(w.entries, writerEntry{
		key: sb.Key, minTS: sb.MinTS, maxTS: sb.MaxTS, n: sb.N, lastSeq: sb.LastSeq,
		bufOff: recStart + recHeaderLen + int64(bufOff), bufLen: len(sb.Buf),
	})
	return nil
}

// finalize writes the index record and footer, fsyncs, maps the file,
// and returns the resulting immutable segment. The caller remaps the
// store's raw blocks onto seg.blocks afterwards, outside any wal lock.
func (w *segmentWriter) finalize() (*segment, error) {
	idx := []byte{recIndex}
	idx = appendUvarint(idx, uint64(len(w.offsets)))
	var prev int64
	for _, off := range w.offsets {
		idx = appendUvarint(idx, uint64(off-prev))
		prev = off
	}
	idxOff := w.size
	if err := w.writeRecord(idx); err != nil {
		return nil, err
	}
	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[:8], uint64(idxOff))
	copy(footer[8:], idxMagic)
	if _, err := w.f.Write(footer[:]); err != nil {
		return nil, err
	}
	w.size += footerLen
	if err := w.f.Sync(); err != nil {
		return nil, err
	}
	// Reopen read-only for the mapping; the write handle closes either
	// way so a finalized segment can never be appended to again.
	data, mapped, err := func() ([]byte, bool, error) {
		rf, err := os.Open(w.path)
		if err != nil {
			return nil, false, err
		}
		defer rf.Close()
		return mmapFile(rf, int(w.size))
	}()
	closeErr := w.f.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	seg := &segment{
		path: w.path, seq: w.seq, size: w.size, maxTS: w.maxTS,
		raw: w.raw, finalized: true, data: data, mapped: mapped,
	}
	for _, e := range w.entries {
		if e.bufOff+int64(e.bufLen) > int64(len(data)) {
			return nil, fmt.Errorf("wal: %s: entry past EOF after finalize", w.path)
		}
		buf := data[e.bufOff : e.bufOff+int64(e.bufLen) : e.bufOff+int64(e.bufLen)]
		seg.blocks = append(seg.blocks, blockRef{sb: tsdb.SealedBlock{
			Key: e.key, Buf: buf, N: e.n, MinTS: e.minTS, MaxTS: e.maxTS,
			LastSeq: e.lastSeq,
		}})
	}
	return seg, nil
}

// sortSegments orders by file sequence — creation order, which is also
// time order for any single series' blocks.
func sortSegments(segs []*segment) {
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
}
