package wal

import (
	"errors"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/tsdb"
)

// evicted counts the leading finalized segments a compaction pass may
// fold: each raw block they hold ends before the oldest raw sample its
// series still serves. Timestamps stand in for the store's row
// sequences, so a test using it gives each series rising timestamps.
func evicted(l *Log, store *tsdb.Store) int {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	oldest := map[tsdb.SeriesKey]int64{}
	for _, s := range l.segs {
		for _, sb := range s.blocks {
			if _, ok := oldest[sb.Key]; ok {
				continue
			}
			oldest[sb.Key] = math.MaxInt64
			for _, sr := range store.Query(sb.Key.Session, tsdb.Query{From: 0, To: 1 << 62, Events: []string{sb.Key.Event}}) {
				if len(sr.Buckets) > 0 {
					oldest[sb.Key] = sr.Buckets[0].Start
				}
			}
		}
	}
	for n, s := range l.segs {
		for _, sb := range s.blocks {
			if sb.MaxTS >= oldest[sb.Key] {
				return n
			}
		}
	}
	return len(l.segs)
}

// segmentBytes totals every live segment, the one being written
// included.
func segmentBytes(l *Log) int64 {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	var n int64
	if l.sw != nil {
		n = l.sw.size
	}
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// TestDiskBoundedByRetention: three virtual hours of ticks from two
// sessions, the second stopping halfway, swept and compacted every 30 s
// as papid's tick and background loops do, with the store keeping a
// minute of history under a byte budget that evicts raw blocks sooner.
// Disk holds raw only the blocks the store holds — a block's record
// costs less than its charge, so those are under the budget — plus the
// segments a pass had to leave because they still held one, the one
// being written, and one compaction output: segment bytes must stay
// under twice the budget, two segments and that output. No segment may
// still hold a sample or bucket of the stopped session, and a crash
// restart must serve what the live store serves. Compaction outputs used
// to keep every rollup bucket ever written, so disk grew linearly while
// the store held a minute.
func TestDiskBoundedByRetention(t *testing.T) {
	const segBytes, budget = 4 << 10, 12 << 10
	const tick, pass, span = 250 * time.Millisecond, 30 * time.Second, 3 * time.Hour
	dir := t.TempDir()
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: segBytes})
	cfg := tsdb.Config{MaxAge: time.Minute, MaxBytes: budget, BlockSamples: 64}
	l, store, _ := openPair(t, dir, opts, cfg)
	events := []string{"PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS", "PAPI_L1_DCM"}
	vals := make([]int64, len(events))
	var now, peak int64
	compacted := 0
	for i := int64(1); i <= int64(span/tick); i++ {
		now = 1_000_000 + i*tick.Microseconds()
		for session := uint64(1); session <= 2; session++ {
			if session == 2 && i > int64(span/tick)/2 {
				break
			}
			for j := range vals {
				vals[j] += int64(j+1)*1000 + i%7
			}
			if err := l.AppendBatch(session, now, events, vals); err != nil {
				t.Fatal(err)
			}
		}
		if i%int64(pass/tick) != 0 {
			continue
		}
		store.Sweep(now)
		cs, err := l.Compact(now)
		if err != nil {
			t.Fatal(err)
		}
		compacted += cs.Compacted
		var output int64
		for _, s := range l.segs {
			if !s.raw {
				output += s.size
			}
		}
		if peak = max(peak, segmentBytes(l)); peak > 2*budget+2*segBytes+output {
			t.Fatalf("%v in: %d segment bytes, over twice the %d-byte budget, two %d-byte segments and the %d-byte output",
				time.Duration(i)*tick, peak, budget, segBytes, output)
		}
		if stopped := time.Duration(i-int64(span/tick)/2) * tick; stopped > 2*time.Minute {
			for _, s := range l.segs {
				for _, rr := range s.rollups {
					if rr.key.Session == 2 {
						t.Fatalf("%v after session 2 stopped, %s holds %d of its buckets", stopped, s.path, len(rr.buckets))
					}
				}
			}
		}
	}
	if compacted == 0 {
		t.Fatal("no pass compacted: the budget never evicted")
	}
	t.Logf("segment bytes peaked at %d over %v; %d segments compacted", peak, span, compacted)
	views := func(s *tsdb.Store) string { return queryAll(t, s, 1, 0, 1<<60) + queryAll(t, s, 2, 0, 1<<60) }
	want := views(store)
	l.Abandon()
	opts.Clock = clock.NewFake(time.UnixMicro(now))
	l2, store2, _ := openPair(t, dir, opts, cfg)
	defer l2.Close()
	if got := views(store2); got != want {
		t.Errorf("restart changed answers: %d → %d bytes", len(want), len(got))
	}
}

// TestTornCompactionOutputKeepsInputs: a write inside a compaction
// output fails — its 'C' record, its first rollup run or its footer —
// and the pass fails whole. Compact returns the error, every input stays
// on disk and in the live list, and every QUERY view answers as before,
// live and after a crash; the kept inputs still compact afterwards.
func TestTornCompactionOutputKeepsInputs(t *testing.T) {
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	const start, step, n = 3_333_333, 100_000, 4000
	now := int64(start + (n-1)*step + time.Minute.Microseconds() + 1)
	// The output's writes: the 'C' record, then for each of the two
	// series a 10 s and a 60 s rollup run and a watermark, then the footer.
	for name, fail := range map[string]int{"compact record": 1, "rollup run": 2, "footer": 8} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var tear *tearWriter // set once the output's file is created
			opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 4 << 10})
			opts.wrap = onFiles("seg-", func(w io.Writer) io.Writer {
				if tear == nil {
					return w
				}
				tear.w = w
				return tear
			})
			cfg := tsdb.Config{BlockSamples: 128, MaxBytes: 16 << 10}
			l, store, _ := openPair(t, dir, opts, cfg)
			appendTicks(t, l, 5, events, n, start, step)
			want := queryAll(t, store, 5, 0, 1<<60)
			inputs := evicted(l, store)
			if inputs == 0 {
				t.Fatal("the budget left no segment to compact")
			}

			tear = &tearWriter{fail: fail}
			if cs, err := l.Compact(now); !errors.Is(err, errInjected) {
				t.Fatalf("Compact = %+v, %v; want the injected error", cs, err)
			}
			if tear.n < fail {
				t.Fatalf("the output saw %d writes; the tear was set for write %d", tear.n, fail)
			}
			files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
			if live := len(l.segs) + 1; evicted(l, store) != inputs || len(files) != live {
				t.Errorf("after the failed pass: %d of %d live segments to compact and %d files, want the %d inputs kept",
					evicted(l, store), live, len(files), inputs)
			}
			if got := queryAll(t, store, 5, 0, 1<<60); got != want {
				t.Error("the failed pass changed live answers")
			}
			l.Abandon()

			opts.wrap = nil
			l2, store2, _ := openPair(t, dir, opts, cfg)
			defer l2.Close()
			if got := queryAll(t, store2, 5, 0, 1<<60); got != want {
				t.Error("restart after the failed pass changed answers")
			}
			if cs, err := l2.Compact(now); err != nil || cs.Compacted != inputs {
				t.Errorf("compacting the kept inputs: %+v, %v; want all %d folded", cs, err, inputs)
			}
		})
	}
}

// rawSample is one sample a raw QUERY serves.
type rawSample struct {
	session uint64
	event   string
	ts, v   int64
}

// The seed store's budget evicts, so the seed directory has segments
// to compact.
const seedSessions, seedBlockSamples, seedBytes = 2, 32, 8 << 10

// seedDir writes a healthy directory FuzzOpenDamagedDir damages —
// finalized raw segments, one compaction output and, after a crash, WAL
// files whose rows are all newer than the output's watermarks; after a
// clean shutdown, no WAL file and the CLEAN marker — and returns its
// files by name.
func seedDir(tb testing.TB, clean bool) map[string][]byte {
	dir := tb.TempDir()
	l, err := Open(dir, noCompact(Options{Fsync: FsyncOff, SegmentBytes: 2 << 10}))
	if err != nil {
		tb.Fatal(err)
	}
	store := tsdb.New(tsdb.Config{MaxBytes: seedBytes, MaxAge: -1, BlockSamples: seedBlockSamples})
	if _, err := l.Start(store); err != nil {
		tb.Fatal(err)
	}
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	rows := func(from, to int64) {
		for i := from; i < to; i++ {
			for s := uint64(1); s <= seedSessions; s++ {
				if err := l.AppendBatch(s, i*100_000, events, []int64{i * 7, i*3 + int64(s)}); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	rows(0, 600)
	if cs, err := l.Compact(600*100_000 + time.Minute.Microseconds()); err != nil || cs.RawBlocks == 0 {
		tb.Fatalf("seed compaction: %+v, %v", cs, err)
	}
	rows(600, 800)
	if clean {
		if err := l.Close(); err != nil {
			tb.Fatal(err)
		}
	} else {
		l.Abandon()
	}

	files := map[string][]byte{}
	var water, oldestRow uint64
	var raw, outputs, wals int
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		files[e.Name()] = b
		if _, ok := parseSeq(e.Name(), "seg-", ".seg"); ok {
			s := scanImage(b)
			if s.raw {
				raw++
			} else {
				outputs++
			}
			for _, m := range s.marks {
				water = max(water, m.seq)
			}
			continue
		}
		if e.Name() == cleanMarker {
			continue
		}
		wals++
		for off := len(walMagic); off < len(b); {
			payload, next, err := readFrame(b, off)
			if err != nil {
				break
			}
			if row, err := decodeRow(payload); err == nil && (oldestRow == 0 || row.seq < oldestRow) {
				oldestRow = row.seq
			}
			off = next
		}
	}
	_, marked := files[cleanMarker]
	if raw == 0 || outputs != 1 || marked != clean || (wals == 0) != clean || (!clean && oldestRow <= water) {
		tb.Fatalf("seed directory (clean %v): %d raw segments, %d outputs, CLEAN marker %v, %d WAL files, oldest WAL row %d, newest watermark %d",
			clean, raw, outputs, marked, wals, oldestRow, water)
	}
	return files
}

// serveDir writes files into a fresh directory under root, opens and
// starts a log over it, and returns every raw sample its store serves
// (nil when Open or Start refuses the directory) and the bytes Open and
// Start allocated.
func serveDir(tb testing.TB, root string, files map[string][]byte) (map[rawSample]bool, uint64) {
	dir, err := os.MkdirTemp(root, "")
	if err != nil {
		tb.Fatal(err)
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	var l *Log
	var store *tsdb.Store
	opened := allocated(func() {
		if l, err = Open(dir, noCompact(Options{Fsync: FsyncOff})); err != nil {
			return
		}
		store = tsdb.New(tsdb.Config{MaxBytes: 1 << 30, MaxAge: -1, BlockSamples: seedBlockSamples})
		_, err = l.Start(store)
	})
	if l != nil {
		defer l.Abandon()
	}
	if err != nil {
		return nil, opened
	}
	return servedRaw(store, 1, seedSessions), opened
}

// servedRaw returns every raw sample the store serves for sessions
// first through last.
func servedRaw(store *tsdb.Store, first, last uint64) map[rawSample]bool {
	served := map[rawSample]bool{}
	for s := first; s <= last; s++ {
		for _, sr := range store.Query(s, tsdb.Query{From: 0, To: 1 << 62}) {
			for _, bk := range sr.Buckets {
				served[rawSample{s, sr.Event, bk.Start, bk.Last}] = true
			}
		}
	}
	return served
}

// healthyDir is one directory FuzzOpenDamagedDir starts from: its
// files, their names in order, and every raw sample it serves intact.
type healthyDir struct {
	files map[string][]byte
	names []string
	truth map[rawSample]bool
}

// damageOps is how many damages damage knows: a byte flipped, a file
// cut short, a file gone, and none.
const damageOps = 4

// damage applies one damage to one of files, picked by index into names.
func damage(files map[string][]byte, names []string, file, op uint8, off uint32, flip byte) {
	name := names[int(file)%len(names)]
	data, ok := files[name]
	if !ok {
		return // already gone
	}
	switch op % damageOps {
	case 0: // a byte flipped
		if len(data) == 0 {
			return
		}
		data = slices.Clone(data)
		data[off%uint32(len(data))] ^= flip | 1
		files[name] = data
	case 1: // cut short
		files[name] = data[:off%uint32(len(data)+1)]
	case 2: // gone
		delete(files, name)
	}
}

// FuzzOpenDamagedDir: Open and Start over a data directory two damages
// away from a healthy one — each a byte flipped, a file cut short, a
// file gone or nothing, among raw segments, a compaction output, the
// WAL and the CLEAN marker. The healthy directory is one a crash left,
// one a clean shutdown left, or the crashed one with a CLEAN marker
// beside its WAL files. Open and Start must never panic and must
// allocate within a small multiple of the directory's bytes, and every
// raw sample the store then serves must be one the intact directory
// served: damage may lose history, never invent it.
func FuzzOpenDamagedDir(f *testing.F) {
	crashed, clean := seedDir(f, false), seedDir(f, true)
	markedWithWAL := maps.Clone(crashed)
	markedWithWAL[cleanMarker] = clean[cleanMarker]
	var dirs []healthyDir
	for _, files := range []map[string][]byte{crashed, clean, markedWithWAL} {
		d := healthyDir{files: files}
		d.truth, _ = serveDir(f, f.TempDir(), files)
		if len(d.truth) == 0 {
			f.Fatal("an intact directory serves no raw sample")
		}
		for name := range files {
			d.names = append(d.names, name)
		}
		slices.Sort(d.names)
		dirs = append(dirs, d)
	}
	// Opening and starting over an empty directory costs a store, a
	// registry and a fresh WAL file whatever the damage left; two
	// damages can leave little else.
	empty := uint64(math.MaxUint64)
	for range 3 {
		_, opened := serveDir(f, f.TempDir(), nil)
		empty = min(empty, opened)
	}
	for base, d := range dirs {
		for i, name := range d.names {
			half := uint32(len(d.files[name]) / 2)
			for op := uint8(0); op < 3; op++ {
				f.Add(uint8(base), uint8(i), op, half, uint8(0), uint8(3), uint32(0), byte(0x40))
			}
			next := uint8(i+1) % uint8(len(d.names))
			f.Add(uint8(base), uint8(i), uint8(1), half, next, uint8(0), uint32(7), byte(0x40))
		}
	}
	f.Fuzz(func(t *testing.T, base, file, op uint8, off uint32, file2, op2 uint8, off2 uint32, flip byte) {
		d := dirs[int(base)%len(dirs)]
		damaged := maps.Clone(d.files)
		damage(damaged, d.names, file, op, off, flip)
		damage(damaged, d.names, file2, op2, off2, flip)
		size := 0
		for _, b := range damaged {
			size += len(b)
		}
		root := t.TempDir()
		var served map[rawSample]bool
		checkAllocated(t, size, empty, func() (opened uint64) {
			served, opened = serveDir(t, root, damaged)
			return opened
		})
		for s := range served {
			if !d.truth[s] {
				t.Fatalf("directory %d, %s (op %d at %d) and %s (op %d at %d) damaged: serves %+v, which the intact directory did not",
					base%uint8(len(dirs)), d.names[int(file)%len(d.names)], op%damageOps, off,
					d.names[int(file2)%len(d.names)], op2%damageOps, off2, s)
			}
		}
	})
}
