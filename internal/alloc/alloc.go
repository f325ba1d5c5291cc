// Package alloc solves the counter-allocation problem the paper casts
// as bipartite graph matching (§5): one vertex set is the events to be
// mapped, the other the physical counters, with an edge wherever an
// event can be counted on a counter. The package provides
//
//   - Assign: a perfect matching covering every event, or failure;
//   - MaxCardinality: a maximum matching when not all events fit
//     (Hopcroft–Karp);
//   - MaxWeight: a maximum-weight matching when events carry
//     priorities (exact bitmask dynamic program over counters);
//   - GreedyFirstFit: the naive baseline PAPI used before 2.3, kept for
//     the E4 comparison;
//   - AssignGrouped: the AIX/POWER-style variant where all counted
//     events must additionally fit inside a single hardware group.
//
// This is the hardware-independent half of the PAPI 3 redesign: the
// substrate translates its platform's counter scheme into Items, and
// this package knows nothing about any platform.
package alloc

import (
	"math/bits"
	"sort"
	"strconv"
)

// Item is one event to place: Mask has bit i set when physical counter
// i can count the event; Weight is the event's priority for the
// max-weight variant (ignored elsewhere).
type Item struct {
	ID     uint32
	Mask   uint32
	Weight int
}

// Result describes an allocation. Counter[i] is the physical counter
// assigned to items[i], or -1 when the item was left unmapped. Mapped
// counts the assigned items and Weight sums their weights.
type Result struct {
	Counter []int
	Mapped  int
	Weight  int
}

func newResult(n int) Result {
	r := Result{Counter: make([]int, n)}
	for i := range r.Counter {
		r.Counter[i] = -1
	}
	return r
}

// complete finalizes bookkeeping from the Counter slice.
func (r *Result) complete(items []Item) {
	r.Mapped, r.Weight = 0, 0
	for i, c := range r.Counter {
		if c >= 0 {
			r.Mapped++
			r.Weight += items[i].Weight
		}
	}
}

// Assign finds an assignment of every item to a distinct counter, if
// one exists. It runs maximum-cardinality matching and succeeds only on
// a perfect matching.
func Assign(items []Item, numCounters int) (Result, bool) {
	r := MaxCardinality(items, numCounters)
	return r, r.Mapped == len(items)
}

// MaxCardinality computes a maximum-cardinality matching via
// Hopcroft–Karp. All event sets in practice are tiny (≤ 32 counters),
// but the algorithm is the textbook O(E·sqrt(V)) version regardless.
func MaxCardinality(items []Item, numCounters int) Result {
	r := newResult(len(items))
	hk := newHopcroftKarp(items, numCounters)
	hk.solve()
	copy(r.Counter, hk.matchL)
	r.complete(items)
	return r
}

const unmatched = -1

type hopcroftKarp struct {
	items  []Item
	nR     int
	matchL []int // item -> counter
	matchR []int // counter -> item
	dist   []int
	queue  []int
}

func newHopcroftKarp(items []Item, numCounters int) *hopcroftKarp {
	hk := &hopcroftKarp{
		items:  items,
		nR:     numCounters,
		matchL: make([]int, len(items)),
		matchR: make([]int, numCounters),
		dist:   make([]int, len(items)+1),
	}
	for i := range hk.matchL {
		hk.matchL[i] = unmatched
	}
	for i := range hk.matchR {
		hk.matchR[i] = unmatched
	}
	return hk
}

const infDist = int(^uint(0) >> 1)

// bfs layers the free left vertices; returns true if an augmenting path
// exists.
func (hk *hopcroftKarp) bfs() bool {
	hk.queue = hk.queue[:0]
	for u := range hk.items {
		if hk.matchL[u] == unmatched {
			hk.dist[u] = 0
			hk.queue = append(hk.queue, u)
		} else {
			hk.dist[u] = infDist
		}
	}
	found := false
	for qi := 0; qi < len(hk.queue); qi++ {
		u := hk.queue[qi]
		mask := hk.items[u].Mask
		for mask != 0 {
			v := bits.TrailingZeros32(mask)
			mask &= mask - 1
			if v >= hk.nR {
				continue
			}
			w := hk.matchR[v]
			if w == unmatched {
				found = true
			} else if hk.dist[w] == infDist {
				hk.dist[w] = hk.dist[u] + 1
				hk.queue = append(hk.queue, w)
			}
		}
	}
	return found
}

// dfs extends an augmenting path from left vertex u along BFS layers.
func (hk *hopcroftKarp) dfs(u int) bool {
	mask := hk.items[u].Mask
	for mask != 0 {
		v := bits.TrailingZeros32(mask)
		mask &= mask - 1
		if v >= hk.nR {
			continue
		}
		w := hk.matchR[v]
		if w == unmatched || (hk.dist[w] == hk.dist[u]+1 && hk.dfs(w)) {
			hk.matchL[u] = v
			hk.matchR[v] = u
			return true
		}
	}
	hk.dist[u] = infDist
	return false
}

func (hk *hopcroftKarp) solve() {
	for hk.bfs() {
		for u := range hk.items {
			if hk.matchL[u] == unmatched {
				hk.dfs(u)
			}
		}
	}
}

// MaxWeight computes a maximum-weight matching: among all matchings it
// maximizes total mapped weight (breaking ties toward more mapped
// events). Exact dynamic program over subsets of counters — valid for
// numCounters ≤ 20, far above any real PMU.
func MaxWeight(items []Item, numCounters int) Result {
	if numCounters > 20 {
		// Fall back to cardinality; no simulated PMU is this wide.
		return MaxCardinality(items, numCounters)
	}
	n := len(items)
	full := 1 << numCounters
	const neg = -1 << 40
	// best[s] = max (weight*K + mapped) using items[0..i) with counter
	// set s occupied; K large enough that weight dominates.
	const k = 1 << 20
	best := make([]int64, full)
	choice := make([][]int8, n) // choice[i][s]: counter picked for item i at state s, or -1
	for i := range choice {
		choice[i] = make([]int8, full)
	}
	cur := make([]int64, full)
	for s := 1; s < full; s++ {
		best[s] = neg
	}
	for i := 0; i < n; i++ {
		for s := 0; s < full; s++ {
			cur[s] = neg
		}
		it := items[i]
		for s := 0; s < full; s++ {
			if best[s] == neg {
				continue
			}
			// Skip item i.
			if best[s] > cur[s] {
				cur[s] = best[s]
				choice[i][s] = -1
			}
			// Place item i on each free allowed counter.
			free := it.Mask & ^uint32(s) & uint32(full-1)
			for free != 0 {
				c := bits.TrailingZeros32(free)
				free &= free - 1
				ns := s | 1<<c
				val := best[s] + int64(it.Weight)*k + 1
				if val > cur[ns] {
					cur[ns] = val
					choice[i][ns] = int8(c)
				}
			}
		}
		best, cur = cur, best
	}
	// Find best final state and backtrack.
	bestS, bestV := 0, best[0]
	for s := 1; s < full; s++ {
		if best[s] > bestV {
			bestS, bestV = s, best[s]
		}
	}
	r := newResult(n)
	s := bestS
	for i := n - 1; i >= 0; i-- {
		c := choice[i][s]
		if c >= 0 {
			r.Counter[i] = int(c)
			s &^= 1 << uint(c)
		}
	}
	r.complete(items)
	return r
}

// GreedyFirstFit is the naive allocator: walk the items in order and
// give each the lowest-numbered free counter it can use, failing the
// item if none is free. It can fail sets a matching would map — exactly
// the deficiency the paper's optimal algorithm fixed in PAPI 2.3.
func GreedyFirstFit(items []Item, numCounters int) (Result, bool) {
	r := newResult(len(items))
	var used uint32
	ok := true
	for i, it := range items {
		free := it.Mask & ^used & (uint32(1)<<numCounters - 1)
		if free == 0 {
			ok = false
			continue
		}
		c := bits.TrailingZeros32(free)
		used |= 1 << c
		r.Counter[i] = c
	}
	r.complete(items)
	return r, ok
}

// AssignGrouped solves the group-constrained variant: every item must
// additionally belong to a single hardware group (identified by event
// ID). It returns the allocation, the index of the chosen group, and
// whether a full mapping exists. Groups are tried in order; the first
// group admitting a perfect matching wins.
func AssignGrouped(items []Item, numCounters int, groups [][]uint32) (Result, int, bool) {
	if len(groups) == 0 {
		r, ok := Assign(items, numCounters)
		return r, -1, ok
	}
	for gi, g := range groups {
		inGroup := make(map[uint32]bool, len(g))
		for _, id := range g {
			inGroup[id] = true
		}
		all := true
		for _, it := range items {
			if !inGroup[it.ID] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		if r, ok := Assign(items, numCounters); ok {
			return r, gi, true
		}
	}
	return newResult(len(items)), -1, false
}

// Key returns a canonical key for a native-event subset: the codes
// sorted, deduplicated and hex-encoded. Two requests that differ only
// in event order or duplication share a key — a matching depends only
// on the subset of items, never on their arrival order.
func Key(codes []uint32) string {
	sorted := append([]uint32(nil), codes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	buf := make([]byte, 0, 9*len(sorted))
	for i, c := range sorted {
		if i > 0 && c == sorted[i-1] {
			continue
		}
		buf = strconv.AppendUint(buf, uint64(c), 16)
		buf = append(buf, '.')
	}
	return string(buf)
}

// Verify checks that a Result is a valid allocation for the items: each
// mapped item sits on an allowed counter and no counter is used twice.
func Verify(items []Item, numCounters int, r Result) bool {
	if len(r.Counter) != len(items) {
		return false
	}
	var used uint32
	for i, c := range r.Counter {
		if c == -1 {
			continue
		}
		if c < 0 || c >= numCounters {
			return false
		}
		if items[i].Mask&(1<<uint(c)) == 0 {
			return false
		}
		if used&(1<<uint(c)) != 0 {
			return false
		}
		used |= 1 << uint(c)
	}
	return true
}
