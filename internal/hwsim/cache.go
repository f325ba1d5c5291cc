package hwsim

// CacheConfig describes the geometry of one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity (1 = direct mapped)
}

// Valid reports whether the geometry is internally consistent.
func (c CacheConfig) Valid() bool {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return false
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return false
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	return sets > 0 && sets&(sets-1) == 0
}

// cache is a set-associative cache with true-LRU replacement. Tags are
// full line addresses biased by one, so the zero tag unambiguously
// means "empty way" even when address 0 is accessed.
type cache struct {
	lineShift uint
	setMask   uint64
	ways      int
	tags      []uint64 // sets × ways
	age       []uint32 // LRU stamps, parallel to tags
	clock     uint32

	accesses uint64
	misses   uint64
}

func newCache(cfg CacheConfig) *cache {
	if !cfg.Valid() {
		panic("hwsim: invalid cache config")
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &cache{
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		tags:      make([]uint64, sets*cfg.Ways),
		age:       make([]uint32, sets*cfg.Ways),
	}
}

// access probes the cache with a byte address and returns true on hit.
// On miss the line is filled, evicting the LRU way.
func (c *cache) access(addr uint64) bool {
	line := addr>>c.lineShift + 1 // +1: zero stays the empty-way marker
	set := int(line&c.setMask) * c.ways
	if c.clock++; c.clock == 0 {
		c.clock = rerankLRU(c.age, c.ways) + 1
	}
	c.accesses++
	lru, lruAge := set, c.age[set]
	for w := 0; w < c.ways; w++ {
		i := set + w
		if c.tags[i] == line {
			c.age[i] = c.clock
			return true
		}
		if c.age[i] < lruAge {
			lru, lruAge = i, c.age[i]
		}
	}
	c.misses++
	c.tags[lru] = line
	c.age[lru] = c.clock
	return false
}

// reset empties the cache and zeroes its statistics.
func (c *cache) reset() {
	clear(c.tags)
	clear(c.age)
	c.clock, c.accesses, c.misses = 0, 0, 0
}

// rerankLRU is what a 32-bit LRU clock does when it wraps: it rewrites
// the stamps of each set of `ways` consecutive ways as their rank in
// the set, 1 for the least recently used, and leaves empty ways at 0.
// It returns the highest rank given, which the clock restarts above.
// Without it the first ways stamped after the wrap would carry the
// smallest stamps and be evicted first. A set's stamps are distinct —
// each access stamps one way with a new clock value — so the ranks keep
// every set's order exactly and replacement is as if the clock were
// wide. Stamps stay 32 bits: a 64-bit stamp per way would add 32 KiB
// to a large L2's state.
func rerankLRU(age []uint32, ways int) uint32 {
	var top uint32
	rank := make([]uint32, ways)
	for set := 0; set < len(age); set += ways {
		s := age[set : set+ways]
		for i, a := range s {
			rank[i] = 0
			for _, b := range s {
				if a != 0 && b != 0 && b <= a {
					rank[i]++
				}
			}
			top = max(top, rank[i])
		}
		copy(s, rank)
	}
	return top
}

// tlb is a fully-associative translation buffer with LRU replacement.
type tlb struct {
	pageShift uint
	entries   []uint64
	age       []uint32
	clock     uint32
}

func newTLB(entries int, pageBytes int) *tlb {
	if entries <= 0 || pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("hwsim: invalid TLB config")
	}
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	return &tlb{pageShift: shift, entries: make([]uint64, entries), age: make([]uint32, entries)}
}

// access probes the TLB with a byte address and returns true on hit.
func (t *tlb) access(addr uint64) bool {
	page := addr>>t.pageShift + 1 // +1 so page 0 is distinguishable from empty
	if t.clock++; t.clock == 0 {
		t.clock = rerankLRU(t.age, len(t.age)) + 1
	}
	lru, lruAge := 0, t.age[0]
	for i, e := range t.entries {
		if e == page {
			t.age[i] = t.clock
			return true
		}
		if t.age[i] < lruAge {
			lru, lruAge = i, t.age[i]
		}
	}
	t.entries[lru] = page
	t.age[lru] = t.clock
	return false
}

func (t *tlb) reset() {
	clear(t.entries)
	clear(t.age)
	t.clock = 0
}
