package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b block
	var want []sample
	ts, v := int64(1_000_000), int64(0)
	for i := 0; i < 1000; i++ {
		ts += 1000 + rng.Int63n(5) // jittered 1ms tick
		v += rng.Int63n(2000) - 3  // occasionally negative delta
		b.appendSample(ts, v)
		want = append(want, sample{ts, v})
	}
	if b.n != len(want) || b.minTS != want[0].ts || b.maxTS != want[len(want)-1].ts {
		t.Fatalf("block header n=%d min=%d max=%d", b.n, b.minTS, b.maxTS)
	}
	got := decodeAll(b.buf, b.n)
	if len(got) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("sample %d: got %+v, want %+v", i, got[i], w)
		}
	}
}

// decodeAll is every sample IterBlock yields from buf, in order.
func decodeAll(buf []byte, n int) []sample {
	var out []sample
	IterBlock(buf, n, func(ts, v int64) bool {
		out = append(out, sample{ts, v})
		return true
	})
	return out
}

func TestBlockExtremes(t *testing.T) {
	var b block
	vals := []int64{0, 1<<62 - 1, -(1 << 62), 42, -1, 0}
	for i, v := range vals {
		b.appendSample(int64(i)*1000, v)
	}
	got := decodeAll(b.buf, b.n)
	if len(got) != len(vals) {
		t.Fatalf("decoded %d of %d extremes", len(got), len(vals))
	}
	for i, want := range vals {
		if got[i].v != want {
			t.Fatalf("extreme %d: got %d, want %d", i, got[i].v, want)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag(%d) round-trips to %d", v, got)
		}
	}
	if zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Errorf("zigzag ordering: zigzag(-1)=%d zigzag(1)=%d", zigzag(-1), zigzag(1))
	}
}

// TestBlockCompression pins the headline property: a steady counter
// stream compresses at least 4x against 16 raw bytes per sample.
func TestBlockCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b block
	ts, v := int64(0), int64(0)
	const n = 4096
	for i := 0; i < n; i++ {
		ts += 50_000                     // fixed 50ms tick
		v += 1_000_000 + rng.Int63n(999) // near-constant counter rate
		b.appendSample(ts, v)
	}
	raw := int64(n * 16)
	if ratio := float64(raw) / float64(len(b.buf)); ratio < 4 {
		t.Errorf("compression ratio %.2fx (encoded %d bytes for %d raw), want >= 4x",
			ratio, len(b.buf), raw)
	}
}

// FuzzIterBlock feeds IterBlock — which replay and compaction hand
// segment bytes read back from disk — arbitrary bytes and counts. It
// must never panic nor yield more than n samples; and reading data as
// a sample log instead, the encoded block must decode to exactly those
// samples, a truncated one to a prefix of them.
func FuzzIterBlock(f *testing.F) {
	var b block
	rng := rand.New(rand.NewSource(5))
	ts, v := int64(-40_000), int64(0)
	for i := 0; i < 64; i++ {
		ts += 50_000 + rng.Int63n(31)
		v += 1_000_000 + rng.Int63n(997)
		b.appendSample(ts, v)
	}
	f.Add(b.buf, b.n)
	f.Add(b.buf[:len(b.buf)/2], b.n)               // truncated mid-block
	f.Add(b.buf[:1], b.n)                          // truncated inside the first sample
	f.Add(b.buf, b.n+100)                          // header claims more than the bytes hold
	f.Add(bytes.Repeat([]byte{0xff}, 24), 3)       // overlong varints
	f.Add(append([]byte{0x80}, b.buf[1:]...), b.n) // continuation bit flipped in
	flipped := append([]byte(nil), b.buf...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped, b.n)
	f.Add([]byte{}, -1)

	f.Fuzz(func(t *testing.T, data []byte, n int) {
		got := 0
		IterBlock(data, n, func(int64, int64) bool { got++; return true })
		if got > max(n, 0) {
			t.Fatalf("IterBlock(%d bytes, n=%d) yielded %d samples", len(data), n, got)
		}

		var enc block
		var want []sample
		for ; len(data) >= 16; data = data[16:] {
			s := sample{int64(binary.LittleEndian.Uint64(data)), int64(binary.LittleEndian.Uint64(data[8:]))}
			enc.appendSample(s.ts, s.v)
			want = append(want, s)
		}
		cut := len(enc.buf)
		if n > 0 {
			cut -= n % (len(enc.buf) + 1)
		}
		i := 0
		IterBlock(enc.buf[:cut], enc.n, func(ts, v int64) bool {
			if i >= len(want) || want[i] != (sample{ts, v}) {
				t.Fatalf("sample %d of %d (cut %d/%d bytes) decoded as (%d,%d)", i, len(want), cut, len(enc.buf), ts, v)
			}
			i++
			return true
		})
		if cut == len(enc.buf) && i != len(want) {
			t.Fatalf("unmutated block decoded %d of %d samples", i, len(want))
		}
	})
}

// FuzzFoldBlock installs arbitrary bytes as a block between two good
// ones, as replay installs what it reads back from disk, appends a few
// live rows after them, and puts the series through Query's raw path
// and its step fold, over the whole history and over a window the
// fuzzer picks. Truncated, overlong and bit-flipped bytes end their own
// block and no more: every reply must equal brute force over the
// samples IterBlock yields from each block in turn.
func FuzzFoldBlock(f *testing.F) {
	var b block
	rng := rand.New(rand.NewSource(11))
	ts, v := int64(0), int64(0)
	for i := 0; i < 64; i++ {
		ts += 50_000 + rng.Int63n(31)
		v += 1_000_000 + rng.Int63n(997)
		b.appendSample(ts, v)
	}
	f.Add(b.buf, b.n, int64(600_000), int64(2_000_000))
	f.Add(b.buf[:len(b.buf)/2], b.n, int64(0), int64(1<<40))           // truncated mid-block
	f.Add(b.buf[:1], b.n, int64(-1), int64(5))                         // truncated inside the first sample
	f.Add(b.buf, b.n+100, int64(3_000_000), int64(500_000))            // header claims more than the bytes hold
	f.Add(bytes.Repeat([]byte{0xff}, 24), 3, int64(0), int64(1))       // overlong varints
	f.Add(append([]byte{0x80}, b.buf[1:]...), b.n, int64(0), int64(9)) // continuation bit flipped in
	flipped := append([]byte(nil), b.buf...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped, b.n, int64(1_000_000), int64(1_500_000))
	f.Add([]byte{}, -1, int64(0), int64(0))

	steps := []int64{0, 7, 333, 4096, 1_000_000, 1 << 50} // no default rollup width divides one
	f.Fuzz(func(t *testing.T, data []byte, n int, from, span int64) {
		bad := decodeAll(data, n)
		lo, hi := int64(0), int64(0) // the damaged block's time bounds
		for i, s := range bad {
			if s.ts < -(1<<60) || s.ts > 1<<60 {
				t.Skip("a timestamp near the end of time: window starts would wrap")
			}
			if i == 0 {
				lo, hi = s.ts, s.ts
			}
			lo, hi = min(lo, s.ts), max(hi, s.ts)
		}
		// A good block of 40 samples ending before the damaged one, and
		// one starting after it; then live rows in the active block.
		var all []sample
		good := func(ts int64) SealedBlock {
			var g block
			rng := rand.New(rand.NewSource(ts))
			for i := 0; i < 40; i++ {
				ts += 1 + rng.Int63n(60_000)
				g.appendSample(ts, rng.Int63n(1<<40)-(1<<39))
			}
			return SealedBlock{Key: SeriesKey{Session: 1, Event: "E"}, Buf: g.buf, N: g.n, MinTS: g.minTS, MaxTS: g.maxTS}
		}
		st := New(Config{MaxBytes: 1 << 30, MaxAge: -1})
		before := good(lo - 3_000_000)
		st.InstallSealed(before)
		all = append(all, decodeAll(before.Buf, before.N)...)
		st.InstallSealed(SealedBlock{Key: before.Key, Buf: data, N: n, MinTS: lo, MaxTS: hi})
		all = append(all, bad...)
		after := good(hi + 1)
		st.InstallSealed(after)
		all = append(all, decodeAll(after.Buf, after.N)...)
		for i := int64(1); i <= 5; i++ {
			s := sample{after.MaxTS + i*70_001, i * i}
			st.Append(1, "E", s.ts, s.v)
			all = append(all, s)
		}

		span = max(1, span&(1<<42-1))
		from = lo - 4_000_000 + from%(hi-lo+8_000_000)
		for _, step := range steps {
			for _, q := range []Query{
				{From: -(1 << 62), To: math.MaxInt64, Step: step},
				{From: from, To: from + span, Step: step},
			} {
				want := bruteRaw(all, q.From, q.To)
				if step > 0 {
					want = bruteQuery(all, q.From, q.To, step)
				}
				var got []Bucket
				if res := st.Query(1, q); len(res) > 0 {
					got = res[0].Buckets
				}
				sameBuckets(t, fmt.Sprintf("%d-byte block of %d samples, query %+v", len(data), len(bad), q), got, want)
			}
		}
	})
}
