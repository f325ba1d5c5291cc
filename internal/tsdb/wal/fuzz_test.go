package wal

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tsdb"
)

// segmentImage builds the bytes of a segment file: the header and one
// CRC-valid frame per payload. A non-nil index is framed behind them as
// the 'I' record and a footer appended that points at idxOff — at the
// index record itself when idxOff is negative.
func segmentImage(payloads [][]byte, index []byte, idxOff int64) []byte {
	img := fileHeader(segMagic)
	for _, p := range payloads {
		img = appendFrame(img, p)
	}
	if index == nil {
		return img
	}
	if idxOff < 0 {
		idxOff = int64(len(img))
	}
	img = appendFrame(img, index)
	img = binary.LittleEndian.AppendUint64(img, uint64(idxOff))
	return append(img, idxMagic...)
}

// indexPayload is the 'I' record a finalize would write for records at
// the given absolute offsets.
func indexPayload(offsets ...uint64) []byte {
	idx := appendUvarint([]byte{recIndex}, uint64(len(offsets)))
	var prev uint64
	for _, off := range offsets {
		idx = appendUvarint(idx, off-prev) // wraps for a descending pair, as a corrupt index may
		prev = off
	}
	return idx
}

func testBlockPayload(i int) []byte {
	p, _ := appendBlock(nil, tsdb.SealedBlock{
		Key: tsdb.SeriesKey{Session: 1, Event: "E"}, Buf: []byte{byte(i), 1, 2, 3},
		N: 4, MinTS: int64(i) * 100, MaxTS: int64(i)*100 + 99, LastSeq: uint64(i + 1)})
	return p
}

// TestSegmentIndexBadOffsets: a footer index that passes its CRC but
// names an offset outside the file's records — past 2^63 (a negative
// int), past the end, inside the header, or wrapped around 2^64 — does
// not prove a clean finalize. The segment must load by scanning its
// records, never index the file with the offset.
func TestSegmentIndexBadOffsets(t *testing.T) {
	payloads := [][]byte{testBlockPayload(0), testBlockPayload(1)}
	first := uint64(len(segMagic))
	second := first + uint64(recHeaderLen+len(payloads[0]))
	size := uint64(len(segmentImage(payloads, indexPayload(first, second), -1)))
	for name, index := range map[string][]byte{
		"offset 2^63":         indexPayload(first, 1<<63),
		"offset 2^64-1":       indexPayload(math.MaxUint64),
		"offset at EOF":       indexPayload(first, size),
		"offset past EOF":     indexPayload(first, size+1000),
		"offset in header":    indexPayload(0, first),
		"offsets wrap around": indexPayload(second, first),
		"count past payload":  appendUvarint([]byte{recIndex}, 1<<40),
	} {
		s := &segment{data: segmentImage(payloads, index, -1)}
		if err := s.parse(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s.finalized || len(s.blocks) != len(payloads) {
			t.Errorf("%s: finalized=%v with %d blocks, want a scan that finds %d",
				name, s.finalized, len(s.blocks), len(payloads))
		}
	}
	s := &segment{data: segmentImage(payloads, indexPayload(first, second), -1)}
	if err := s.parse(); err != nil || !s.finalized || len(s.blocks) != len(payloads) {
		t.Errorf("honest index: err=%v finalized=%v blocks=%d", err, s.finalized, len(s.blocks))
	}
	if _, _, err := readFrame(s.data, -1<<63+7); err == nil {
		t.Error("readFrame accepted a negative offset")
	}
}

// splitPayloads cuts fuzz bytes into record payloads: a uvarint length,
// then that many bytes (or what is left), repeated.
func splitPayloads(body []byte) [][]byte {
	var out [][]byte
	for len(body) > 0 {
		n, w := binary.Uvarint(body)
		if w <= 0 {
			break
		}
		body = body[w:]
		n = min(n, uint64(len(body)))
		out = append(out, body[:n])
		body = body[n:]
	}
	return out
}

// checkAllocs fails the test when decode, handed size bytes of input,
// allocates more than a small multiple of them. The count is the
// process's, so a reading over the limit is taken again before it is
// believed: decode is deterministic, another goroutine's allocation is
// not.
func checkAllocs(t *testing.T, size int, decode func()) {
	limit := uint64(64*size + 4096)
	var grew uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if grew = after.TotalAlloc - before.TotalAlloc; grew <= limit {
			return
		}
	}
	t.Fatalf("decoding %d bytes allocated %d, limit %d", size, grew, limit)
}

// FuzzLoadSegment feeds segment.parse — what Open runs over every
// seg-*.seg file it finds — arbitrary records behind a valid header.
// The harness frames each payload with a correct CRC, so the fuzzer
// works on record and index contents instead of on the checksum; mode
// picks a footer the fuzzer wrote (its index bytes, its offset), an
// honest footer, none, or the body unframed. parse must return a
// segment or an error, never panic, and never allocate more than a
// small multiple of the file. With an honest footer the index and the
// scan must agree: chopping the footer off changes how the records are
// found, not which ones.
func FuzzLoadSegment(f *testing.F) {
	rollup := appendRollup(nil, rollupRecord{key: tsdb.SeriesKey{Session: 2, Event: "R"}, width: 10_000_000,
		buckets: []tsdb.Bucket{{Start: 0, Count: 3, Min: 1, Max: 9, Sum: 12, Last: 2}, {Start: 10_000_000, Count: 1}}})
	mark := appendWatermark(nil, watermarkRecord{key: tsdb.SeriesKey{Session: 2, Event: "R"}, seq: 77})
	var body []byte
	for _, p := range [][]byte{testBlockPayload(0), rollup, mark, appendCompactMeta(nil, 3), testBlockPayload(1)} {
		body = append(appendUvarint(body, uint64(len(p))), p...)
	}
	const (
		fuzzFooter   = 1 // index and footer offset as the fuzzer gave them
		honestFooter = 2 // index and footer as finalize would write them
		unframed     = 4 // body verbatim behind the header
	)
	f.Add(body, []byte(nil), uint64(0), uint8(0))
	f.Add(body, []byte(nil), uint64(0), uint8(honestFooter))
	f.Add(body, indexPayload(8, 1<<63), uint64(math.MaxUint64), uint8(fuzzFooter))
	f.Add(body, indexPayload(8), uint64(3), uint8(fuzzFooter))
	f.Add(body[:len(body)/2], appendUvarint([]byte{recIndex}, 1<<40), uint64(math.MaxUint64), uint8(fuzzFooter))
	f.Add(appendFrame(nil, rollup)[:20], []byte(nil), uint64(0), uint8(unframed))
	f.Add([]byte{3, recRollup, 0, 0}, []byte{recIndex, 1, 8}, uint64(math.MaxUint64), uint8(fuzzFooter))
	f.Add(append([]byte{12, recRollup, 1, 1, 'x', 2}, appendUvarint(nil, 1<<24)...), []byte(nil), uint64(0), uint8(0))

	f.Fuzz(func(t *testing.T, body, index []byte, idxOff uint64, mode uint8) {
		payloads := splitPayloads(body)
		var img []byte
		switch {
		case mode&unframed != 0:
			img = append(fileHeader(segMagic), body...)
		case mode&honestFooter != 0:
			offsets, off := make([]uint64, len(payloads)), uint64(len(segMagic))
			for i, p := range payloads {
				offsets[i] = off
				off += uint64(recHeaderLen + len(p))
			}
			img = segmentImage(payloads, indexPayload(offsets...), -1)
		case mode&fuzzFooter != 0:
			img = segmentImage(payloads, append([]byte{}, index...), int64(idxOff))
		default:
			img = segmentImage(payloads, nil, 0)
		}

		var s *segment
		var err error
		checkAllocs(t, len(img), func() {
			s = &segment{data: img}
			err = s.parse()
		})
		if mode&unframed != 0 || mode&honestFooter == 0 {
			return
		}
		scanned := &segment{data: segmentImage(payloads, nil, 0)}
		if serr := scanned.parse(); serr != nil {
			t.Fatalf("scan returned an error: %v", serr)
		}
		if err != nil {
			if scanned.torn == 0 {
				t.Fatalf("index load failed (%v) on records the scan took whole", err)
			}
			return
		}
		if !s.finalized || scanned.torn != 0 || len(s.blocks) != len(scanned.blocks) ||
			len(s.rollups) != len(scanned.rollups) || len(s.marks) != len(scanned.marks) ||
			s.replacedThrough != scanned.replacedThrough || s.maxTS != scanned.maxTS {
			t.Fatalf("index and scan disagree: finalized=%v torn=%d, blocks %d/%d rollups %d/%d marks %d/%d",
				s.finalized, scanned.torn, len(s.blocks), len(scanned.blocks),
				len(s.rollups), len(scanned.rollups), len(s.marks), len(scanned.marks))
		}
	})
}

// FuzzDecodeRow: a row appendRow encoded decodes to itself; an arbitrary
// payload — what replay reads out of a CRC-valid but foreign or damaged
// WAL record — decodes to an error or to a row that survives its own
// re-encoding, and never panics or allocates past its size.
func FuzzDecodeRow(f *testing.F) {
	f.Add(uint64(1), uint64(2), int64(3), []byte("\x03abc\x01\x02\x03\x04\x05\x06\x07\x08"), []byte(nil))
	f.Add(uint64(math.MaxUint64), uint64(0), int64(math.MinInt64), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x80}, []byte{})
	f.Add(uint64(9), uint64(9), int64(-9), []byte(nil), appendRow(nil, 5, 6, 7, []string{"X", ""}, []int64{-1, 1}))
	f.Add(uint64(0), uint64(0), int64(0), []byte(nil), []byte{recRow, 1, 1, 1, 0xff, 0xff, 0x03})
	f.Add(uint64(0), uint64(0), int64(0), []byte(nil), []byte{recBlock, 1, 1, 1, 0})

	f.Fuzz(func(t *testing.T, seq, session uint64, ts int64, evs, payload []byte) {
		var events []string
		var vals []int64
		for len(evs) >= 9 {
			n := min(int(evs[0]%16), len(evs)-9)
			events = append(events, string(evs[1:1+n]))
			vals = append(vals, int64(binary.LittleEndian.Uint64(evs[1+n:])))
			evs = evs[9+n:]
		}
		want := rowRecord{seq: seq, session: session, ts: ts, events: events, vals: vals}
		got, err := decodeRow(appendRow(nil, seq, session, ts, events, vals))
		if err != nil || !sameRow(got, want) {
			t.Fatalf("round trip: %+v decoded as %+v (%v)", want, got, err)
		}

		var row rowRecord
		checkAllocs(t, len(payload), func() { row, err = decodeRow(payload) })
		if err != nil {
			return
		}
		again, err := decodeRow(appendRow(nil, row.seq, row.session, row.ts, row.events, row.vals))
		if err != nil || !sameRow(again, row) {
			t.Fatalf("decoded row does not survive re-encoding: %+v became %+v (%v)", row, again, err)
		}
	})
}

func sameRow(a, b rowRecord) bool {
	return a.seq == b.seq && a.session == b.session && a.ts == b.ts &&
		slices.Equal(a.events, b.events) && slices.Equal(a.vals, b.vals)
}
