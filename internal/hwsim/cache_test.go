package hwsim

import (
	"testing"
	"testing/quick"
)

func TestCacheConfigValid(t *testing.T) {
	cases := []struct {
		cfg CacheConfig
		ok  bool
	}{
		{CacheConfig{SizeBytes: 16 << 10, LineBytes: 32, Ways: 4}, true},
		{CacheConfig{SizeBytes: 0, LineBytes: 32, Ways: 4}, false},
		{CacheConfig{SizeBytes: 16 << 10, LineBytes: 48, Ways: 4}, false}, // non-power-of-two line
		{CacheConfig{SizeBytes: 24 << 10, LineBytes: 32, Ways: 4}, false}, // non-power-of-two sets
		{CacheConfig{SizeBytes: 96 << 10, LineBytes: 64, Ways: 3}, true},  // 512 sets
		{CacheConfig{SizeBytes: 16 << 10, LineBytes: 32, Ways: 0}, false},
	}
	for _, c := range cases {
		if got := c.cfg.Valid(); got != c.ok {
			t.Errorf("Valid(%+v) = %v, want %v", c.cfg, got, c.ok)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := newCache(CacheConfig{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2})
	if c.access(0x1000) {
		t.Fatal("cold access should miss")
	}
	if !c.access(0x1000) {
		t.Fatal("second access to same line should hit")
	}
	if !c.access(0x101f) {
		t.Fatal("access within same 32-byte line should hit")
	}
	if c.access(0x1020) {
		t.Fatal("next line should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 32B lines, 4 sets: size = 2*32*4 = 256B.
	c := newCache(CacheConfig{SizeBytes: 256, LineBytes: 32, Ways: 2})
	// Three lines mapping to set 0 (stride = sets*line = 128).
	a, b, d := uint64(0x1000), uint64(0x1080), uint64(0x1100)
	c.access(a)
	c.access(b)
	c.access(a) // a is now MRU
	c.access(d) // evicts b (LRU)
	if !c.access(a) {
		t.Fatal("a should still be resident")
	}
	if c.access(b) {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheCapacityWorkingSet(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4}
	c := newCache(cfg)
	// Touch a working set equal to capacity twice: second pass all hits.
	var accesses, misses uint64
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < uint64(cfg.SizeBytes); addr += 64 {
			accesses++
			if !c.access(0x10000 + addr) {
				misses++
			}
		}
	}
	lines := uint64(cfg.SizeBytes / cfg.LineBytes)
	if misses != lines {
		t.Errorf("misses = %d, want %d (only cold misses)", misses, lines)
	}
	if accesses != 2*lines {
		t.Errorf("accesses = %d, want %d", accesses, 2*lines)
	}
}

func TestCacheStatsInvariant(t *testing.T) {
	// Property: misses <= accesses, and replaying any address sequence
	// after reset yields identical stats (determinism).
	f := func(addrs []uint16) bool {
		c := newCache(CacheConfig{SizeBytes: 512, LineBytes: 32, Ways: 2})
		run := func() (accesses, misses uint64) {
			c.reset()
			for _, a := range addrs {
				accesses++
				if !c.access(uint64(a)) {
					misses++
				}
			}
			return accesses, misses
		}
		a1, m1 := run()
		a2, m2 := run()
		return a1 == a2 && m1 == m2 && m1 <= a1 && a1 == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBHitMissAndLRU(t *testing.T) {
	tl := newTLB(2, 4096)
	if tl.access(0x0) {
		t.Fatal("cold TLB access should miss")
	}
	if !tl.access(0xfff) {
		t.Fatal("same page should hit")
	}
	tl.access(0x2000) // second entry
	if !tl.access(0x0) {
		t.Fatal("page 0 still resident")
	}
	tl.access(0x4000) // evicts LRU (0x2000)
	if tl.access(0x2000) {
		t.Fatal("page 0x2000 should have been evicted")
	}
}

func TestTLBPageZeroDistinguishable(t *testing.T) {
	// Address 0 maps to page 0; an empty entry must not alias it.
	tl := newTLB(4, 4096)
	if tl.access(0) {
		t.Fatal("first access to page 0 must miss even though entries are zeroed")
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	bp := newBranchPredictor(256)
	pc := uint64(0x400)
	// Always-taken branch: after warmup, always predicted correctly.
	miss := 0
	for i := 0; i < 100; i++ {
		if !bp.predict(pc, true) {
			miss++
		}
	}
	if miss > 2 {
		t.Errorf("always-taken branch mispredicted %d times, want <= 2", miss)
	}
}

func TestBranchPredictorAlternatingIsHard(t *testing.T) {
	bp := newBranchPredictor(256)
	pc := uint64(0x400)
	miss := 0
	for i := 0; i < 100; i++ {
		if !bp.predict(pc, i%2 == 0) {
			miss++
		}
	}
	if miss < 40 {
		t.Errorf("alternating branch mispredicted only %d/100 times; 2-bit counters should do badly", miss)
	}
}

// TestLRUClockWrap: a seeded access stream must hit and miss exactly as
// it does from a fresh clock when the 32-bit LRU clock wraps partway
// through, for the cache and for the TLB. A wrap used to give the ways
// stamped after it the smallest stamps, so the most recently used way
// was evicted first.
func TestLRUClockWrap(t *testing.T) {
	const accesses = 20_000
	stream := func(seed uint64) []uint64 {
		r := newRNG(seed)
		out := make([]uint64, accesses)
		for i := range out {
			out[i] = uint64(r.intn(48)) << 7 // 48 lines or pages in a small pool
		}
		return out
	}
	for _, start := range []uint32{1<<32 - 7, 1<<32 - accesses/2} {
		addrs := stream(uint64(start))
		fresh := newCache(CacheConfig{SizeBytes: 2 << 10, LineBytes: 128, Ways: 4})
		wrapped := newCache(CacheConfig{SizeBytes: 2 << 10, LineBytes: 128, Ways: 4})
		wrapped.clock = start
		for i, a := range addrs {
			if got, want := wrapped.access(a), fresh.access(a); got != want {
				t.Fatalf("cache, clock from %d: access %d hit=%v, a fresh clock hit=%v", start, i, got, want)
			}
		}
		freshTLB, wrappedTLB := newTLB(16, 128), newTLB(16, 128)
		wrappedTLB.clock = start
		for i, a := range addrs {
			if got, want := wrappedTLB.access(a), freshTLB.access(a); got != want {
				t.Fatalf("TLB, clock from %d: access %d hit=%v, a fresh clock hit=%v", start, i, got, want)
			}
		}
		if wrapped.clock >= start || wrappedTLB.clock >= start {
			t.Fatalf("clock from %d never wrapped: cache %d, TLB %d", start, wrapped.clock, wrappedTLB.clock)
		}
	}
}
