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
// blocks, written by the persist pass), and for compacted segments
// a 'C' provenance record, 'R' rollup runs and 'W' watermarks. A segment
// being written is a plain append-only file; when it fills (or at
// graceful shutdown) it is finalized — a fixed footer is appended and
// the file fsynced — then closed and loaded the way Open loads every
// segment it finds, so what the live log holds for a file is by
// construction what a restart would read from it. Every raw block the
// store still holds is remapped onto the mapping so the heap copies
// can be collected. A segment that was being written when the process
// died has no footer; it loads as far as its records are intact and is
// left as-is (new seals go to a new file).
//
// Footer layout, fixed 16 bytes at EOF:
//
//	[u64le offset where the records end][8-byte idxMagic]
//
// The footer is the finalize mark: a load that walks every record,
// CRC-checked, from the header to that offset has seen the whole
// segment. Bytes between the offset and the footer are not read —
// segments written before the footer alone carried this meaning keep
// an 'I' index record there.

const footerLen = 16

// segment is one immutable on-disk segment. loadSegment is its only
// constructor.
type segment struct {
	path      string
	seq       uint64 // file sequence, from the name
	size      int64
	maxTS     int64 // newest sample covered, for retention
	raw       bool  // holds 'B' records (compaction input)
	finalized bool  // every record up to a valid footer loaded
	// replacedThrough, when non-zero, marks a compaction output: every
	// segment with seq at or below it is superseded by this one.
	replacedThrough uint64
	data            []byte
	mapped          bool
	blocks          []tsdb.SealedBlock // Buf aliases data
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

// loadSegment maps a segment file and scans its records.
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
	s.scan()
	return s, nil
}

// scan fills the segment from s.data, the file's bytes: one loop from
// the header to the offset a footer names — reached with every record
// intact, the segment is finalized — or to the first torn record. A
// footer naming an offset that is no record boundary is never reached,
// so the file loads as if it had none.
func (s *segment) scan() {
	data := s.data
	if checkHeader(data, segMagic) != nil {
		// Not even a header: a crash right after create. Treat as empty.
		s.torn = 1
		return
	}
	end, footer := uint64(len(data)), false
	if n := len(data) - footerLen; n >= len(segMagic) && string(data[n+8:]) == idxMagic {
		end, footer = binary.LittleEndian.Uint64(data[n:]), true
	}
	for off := len(segMagic); uint64(off) != end; {
		payload, next, err := readFrame(data, off)
		if err != nil || len(payload) == 0 || s.addRecord(payload) != nil {
			s.torn = 1
			return
		}
		off = next
	}
	s.finalized = footer
}

func (s *segment) addRecord(payload []byte) error {
	switch payload[0] {
	case recBlock:
		sb, err := decodeBlock(payload)
		if err != nil {
			return err
		}
		s.raw = true
		s.blocks = append(s.blocks, sb)
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

// segmentWriter accumulates records into the active segment file.
type segmentWriter struct {
	f       *os.File
	wr      io.Writer // f, or f behind Options.wrap (tests)
	path    string
	seq     uint64
	size    int64 // bytes of header and whole records written
	maxTS   int64 // newest sample in a written block, for the expired finalize
	dirty   bool  // bytes written since last fsync
	scratch []byte
}

// createFile starts a WAL or segment file: an exclusive create and the
// header. A failed header write removes the file — the caller did not
// advance its sequence, so its next attempt takes this same path and
// would wedge on O_EXCL forever, and a header-less leftover is a file
// every later Open lists and cannot read.
func createFile(path, magic string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(fileHeader(magic)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

func createWAL(dir string, seq uint64) (*os.File, error) {
	return createFile(walPath(dir, seq), walMagic)
}

// createSegment starts segment file seq in the log's directory — a live
// segment or a compaction output — writing its records through l.writer.
func (l *Log) createSegment(seq uint64) (*segmentWriter, error) {
	path := segPath(l.dir, seq)
	f, err := createFile(path, segMagic)
	if err != nil {
		return nil, err
	}
	return &segmentWriter{f: f, wr: l.writer(f), path: path, seq: seq, size: int64(len(segMagic)), dirty: true}, nil
}

// writer is what the log writes a file's records through: the file, or
// the file behind Options.wrap.
func (l *Log) writer(f *os.File) io.Writer {
	if l.opts.wrap == nil {
		return f
	}
	return l.opts.wrap(filepath.Base(f.Name()), f)
}

// writeRecord frames and appends one payload. On error the writer's
// size deliberately does not advance — but partial bytes may already be
// on disk, so the caller must retire the writer without a footer
// rather than keep appending records a load could not reach.
func (w *segmentWriter) writeRecord(payload []byte) error {
	rec := appendFrame(w.scratch[:0], payload)
	w.scratch = rec[:0]
	if _, err := w.wr.Write(rec); err != nil {
		return err
	}
	w.size += int64(len(rec))
	w.dirty = true
	return nil
}

// writeBlock appends one sealed block record.
func (w *segmentWriter) writeBlock(sb tsdb.SealedBlock) error {
	if err := w.writeRecord(appendBlock(nil, sb)); err != nil {
		return err
	}
	w.maxTS = max(w.maxTS, sb.MaxTS)
	return nil
}

// close ends the file: with finalize set it first appends the footer
// that vouches for every record written, then fsyncs and closes either
// way — the write handle never outlives the call, so a segment that
// has been loaded can never be appended to again. The first error is
// returned; the file is loadable as far as it is intact regardless.
func (w *segmentWriter) close(finalize bool) error {
	var err error
	if finalize {
		footer := binary.LittleEndian.AppendUint64(make([]byte, 0, footerLen), uint64(w.size))
		_, err = w.wr.Write(append(footer, idxMagic...))
	}
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sortSegments orders by file sequence — creation order, which is also
// time order for any single series' blocks.
func sortSegments(segs []*segment) {
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
}
