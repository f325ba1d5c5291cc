package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tsdb"
)

// recIndex is the record type of the footer index that segments carried
// before the footer alone marked a finalize. Nothing writes or reads
// one now; the helpers below spell the old format so the tests can pin
// that such files still load.
const recIndex = 'I'

// segmentImage builds the bytes of a footerless segment file: the
// header and one CRC-valid frame per payload.
func segmentImage(payloads [][]byte) []byte {
	img := fileHeader(segMagic)
	for _, p := range payloads {
		img = appendFrame(img, p)
	}
	return img
}

// withFooter finalizes an image: the footer names end as the offset
// where the records end — the image's own end when end is negative. A
// non-nil index is framed in between as the old format's 'I' record.
func withFooter(img, index []byte, end int64) []byte {
	img = slices.Clip(img) // the caller's image stays as it is
	if end < 0 {
		end = int64(len(img))
	}
	if index != nil {
		img = appendFrame(img, index)
	}
	img = binary.LittleEndian.AppendUint64(img, uint64(end))
	return append(img, idxMagic...)
}

// indexPayload is the 'I' record an old finalize wrote for records at
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

// honestIndex is the 'I' record an old finalize wrote for payloads.
func honestIndex(payloads [][]byte) []byte {
	offsets, off := make([]uint64, len(payloads)), uint64(len(segMagic))
	for i, p := range payloads {
		offsets[i] = off
		off += uint64(recHeaderLen + len(p))
	}
	return indexPayload(offsets...)
}

func scanImage(img []byte) *segment {
	s := &segment{}
	s.scan(img)
	return s
}

// sameRecords reports whether two loads found the same records.
func sameRecords(a, b *segment) bool {
	return reflect.DeepEqual(a.blocks, b.blocks) && reflect.DeepEqual(a.rollups, b.rollups) &&
		reflect.DeepEqual(a.marks, b.marks) && a.replacedThrough == b.replacedThrough &&
		a.maxTS == b.maxTS && a.raw == b.raw
}

func testBlockPayload(i int) []byte {
	return appendBlock(nil, tsdb.SealedBlock{
		Key: tsdb.SeriesKey{Session: 1, Event: "E"}, Buf: []byte{byte(i), 1, 2, 3},
		N: 4, MinTS: int64(i) * 100, MaxTS: int64(i)*100 + 99, LastSeq: uint64(i + 1)})
}

// TestSegmentIndexBadOffsets: which records a segment file holds is
// decided by its records, never by what follows them. One payload list
// loads the same behind no footer, behind the footer, behind the old
// format's index record and footer, and behind an old index that passes
// its CRC but names offsets outside the file's records — past 2^63 (a
// negative int), past the end, inside the header, wrapped around 2^64:
// nothing reads the index, so nothing indexes the file with it. Only
// the first is not finalized. A footer whose own offset is no record
// boundary vouches for nothing: the file loads its intact records and
// is not finalized. And a finalized file with a corrupt record in the
// middle loads the records before it and counts the tear.
func TestSegmentIndexBadOffsets(t *testing.T) {
	payloads := [][]byte{testBlockPayload(0), testBlockPayload(1), testBlockPayload(2)}
	bare := segmentImage(payloads)
	first := uint64(len(segMagic))
	second := first + uint64(recHeaderLen+len(payloads[0]))
	size := uint64(len(withFooter(bare, honestIndex(payloads), -1)))

	want := scanImage(bare)
	if want.finalized || want.torn != 0 || len(want.blocks) != len(payloads) {
		t.Fatalf("no footer: finalized=%v torn=%d blocks=%d, want an unfinalized load of %d",
			want.finalized, want.torn, len(want.blocks), len(payloads))
	}
	for name, img := range map[string][]byte{
		"footer":                   withFooter(bare, nil, -1),
		"old index":                withFooter(bare, honestIndex(payloads), -1),
		"old: offset 2^63":         withFooter(bare, indexPayload(first, 1<<63), -1),
		"old: offset 2^64-1":       withFooter(bare, indexPayload(math.MaxUint64), -1),
		"old: offset at EOF":       withFooter(bare, indexPayload(first, size), -1),
		"old: offset past EOF":     withFooter(bare, indexPayload(first, size+1000), -1),
		"old: offset in header":    withFooter(bare, indexPayload(0, first), -1),
		"old: offsets wrap around": withFooter(bare, indexPayload(second, first), -1),
		"old: count past payload":  withFooter(bare, appendUvarint([]byte{recIndex}, 1<<40), -1),
	} {
		if s := scanImage(img); !s.finalized || s.torn != 0 || !sameRecords(s, want) {
			t.Errorf("%s: finalized=%v torn=%d with %d blocks, want the footerless load's %d, finalized",
				name, s.finalized, s.torn, len(s.blocks), len(payloads))
		}
	}

	for name, end := range map[string]int64{
		"in header":           3,
		"zero":                0,
		"inside a record":     int64(second) + 5,
		"inside the footer":   int64(len(bare)) + 8,
		"past the footer":     int64(len(bare)) + footerLen,
		"far past the footer": math.MaxInt64,
	} {
		for _, index := range [][]byte{nil, honestIndex(payloads)} {
			if s := scanImage(withFooter(bare, index, end)); s.finalized || s.torn == 0 || !sameRecords(s, want) {
				t.Errorf("footer offset %s (index %v): finalized=%v torn=%d blocks=%d, want every intact record, torn, not finalized",
					name, index != nil, s.finalized, s.torn, len(s.blocks))
			}
		}
	}
	// A footer may end the records early — that is how an old index
	// record stays unread — but only on a record boundary.
	if s := scanImage(withFooter(bare, nil, int64(second))); !s.finalized || len(s.blocks) != 1 {
		t.Errorf("footer at the second record: finalized=%v blocks=%d, want the first record only", s.finalized, len(s.blocks))
	}

	corrupt := withFooter(bare, nil, -1)
	corrupt[second+recHeaderLen+3] ^= 0x40
	if s := scanImage(corrupt); s.finalized || s.torn != 1 || len(s.blocks) != 1 ||
		!reflect.DeepEqual(s.blocks[0], want.blocks[0]) {
		t.Errorf("corrupt middle record: finalized=%v torn=%d blocks=%d, want the one record before it, torn",
			s.finalized, s.torn, len(s.blocks))
	}

	if _, _, err := readFrame(bare, -1<<63+7); err == nil {
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

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkAllocs fails the test when decode, handed size bytes of input,
// allocates more than a small multiple of them.
func checkAllocs(t *testing.T, size int, decode func()) {
	checkAllocated(t, size, 0, func() uint64 { return allocated(decode) })
}

// checkAllocated is checkAllocs for a decode that measures its own
// allocation, allowing fixed — what it costs on no input at all — on
// top. The count is the process's, so a reading over the limit is
// taken again before it is believed: decode is deterministic, another
// goroutine's allocation is not.
func checkAllocated(t *testing.T, size int, fixed uint64, decode func() uint64) {
	limit := fixed + uint64(64*size+4096)
	var grew uint64
	for try := 0; try < 3; try++ {
		if grew = decode(); grew <= limit {
			return
		}
	}
	t.Fatalf("decoding %d bytes allocated %d, limit %d", size, grew, limit)
}

// FuzzLoadSegment feeds segment.scan — what Open runs over every
// seg-*.seg file it finds — arbitrary records behind a valid header.
// The harness frames each payload with a correct CRC, so the fuzzer
// works on record and footer contents instead of on the checksum; mode
// picks a footer the fuzzer wrote (its offset, its bytes where the old
// format kept an index), an honest footer, none, or the body unframed.
// scan must never panic and never allocate more than a small multiple
// of the file. An honest footer — today's, or the old format's with
// any index bytes at all — changes whether the load is finalized,
// never which records it finds.
func FuzzLoadSegment(f *testing.F) {
	rollup := appendRollup(nil, rollupRecord{key: tsdb.SeriesKey{Session: 2, Event: "R"}, width: 10_000_000,
		buckets: []tsdb.Bucket{{Start: 0, Count: 3, Min: 1, Max: 9, Sum: 12, Last: 2}, {Start: 10_000_000, Count: 1}}})
	mark := appendWatermark(nil, watermarkRecord{key: tsdb.SeriesKey{Session: 2, Event: "R"}, seq: 77})
	var body []byte
	for _, p := range [][]byte{testBlockPayload(0), rollup, mark, appendCompactMeta(nil, 3), testBlockPayload(1)} {
		body = append(appendUvarint(body, uint64(len(p))), p...)
	}
	const (
		fuzzFooter   = 1 // footer offset and old-format index bytes as the fuzzer gave them
		honestFooter = 2 // footer naming the end of the records
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
		bare := segmentImage(payloads)
		var img []byte
		switch {
		case mode&unframed != 0:
			img = append(fileHeader(segMagic), body...)
		case mode&honestFooter != 0:
			img = withFooter(bare, nil, -1)
		case mode&fuzzFooter != 0:
			// A MaxUint64 offset is withFooter's "the records' end".
			img = withFooter(bare, append([]byte{}, index...), int64(idxOff))
		default:
			img = bare
		}

		var s *segment
		checkAllocs(t, len(img), func() { s = scanImage(img) })
		// A last payload that itself ends in the footer magic makes the
		// footerless image a footered one; there is no "without" to compare.
		if mode&unframed != 0 || mode&honestFooter == 0 || bytes.HasSuffix(bare, []byte(idxMagic)) {
			return
		}
		scanned := scanImage(bare)
		for name, got := range map[string]*segment{
			"footer":                 s,
			"old index":              scanImage(withFooter(bare, honestIndex(payloads), -1)),
			"old index, fuzzed body": scanImage(withFooter(bare, append([]byte{recIndex}, index...), -1)),
		} {
			if got.finalized != (scanned.torn == 0) || got.torn != scanned.torn || !sameRecords(got, scanned) {
				t.Fatalf("%s: finalized=%v torn=%d blocks %d rollups %d marks %d; without it torn=%d blocks %d rollups %d marks %d",
					name, got.finalized, got.torn, len(got.blocks), len(got.rollups), len(got.marks),
					scanned.torn, len(scanned.blocks), len(scanned.rollups), len(scanned.marks))
			}
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
