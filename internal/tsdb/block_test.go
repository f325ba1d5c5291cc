package tsdb

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b block
	type sample struct{ ts, v int64 }
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
	it := b.iter()
	for i, w := range want {
		ts, v, ok := it.next()
		if !ok {
			t.Fatalf("iterator exhausted at %d/%d", i, len(want))
		}
		if ts != w.ts || v != w.v {
			t.Fatalf("sample %d: got (%d,%d), want (%d,%d)", i, ts, v, w.ts, w.v)
		}
	}
	if _, _, ok := it.next(); ok {
		t.Fatal("iterator returned a sample past the end")
	}
}

func TestBlockExtremes(t *testing.T) {
	var b block
	vals := []int64{0, 1<<62 - 1, -(1 << 62), 42, -1, 0}
	for i, v := range vals {
		b.appendSample(int64(i)*1000, v)
	}
	it := b.iter()
	for i, want := range vals {
		_, v, ok := it.next()
		if !ok || v != want {
			t.Fatalf("extreme %d: got (%d,%v), want %d", i, v, ok, want)
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
