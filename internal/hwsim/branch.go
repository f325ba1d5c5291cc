package hwsim

import "slices"

// branchPredictor is a classic table of 2-bit saturating counters
// indexed by low PC bits. It is deliberately simple: the experiments
// only need a realistic mispredict *rate*, not a competition-grade
// predictor.
type branchPredictor struct {
	table []uint8 // 2-bit counters, 0..3; >=2 predicts taken
	mask  uint64

	// While logging, each counter predict moves is recorded as its
	// index<<1 | 1 for a step up, 0 for a step down, up to the log's
	// capacity — a sixteenth of the table — and overflowed past it.
	logging    bool
	moves      []uint32
	overflowed bool
}

func newBranchPredictor(entries int) *branchPredictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("hwsim: predictor entries must be a positive power of two")
	}
	bp := &branchPredictor{table: make([]uint8, entries), mask: uint64(entries - 1),
		moves: make([]uint32, 0, entries/16)}
	for i := range bp.table {
		bp.table[i] = 1 // weakly not-taken
	}
	return bp
}

// predict consumes one branch at pc with the given outcome and reports
// whether the prediction was correct. The counter is updated in place.
func (b *branchPredictor) predict(pc uint64, taken bool) bool {
	i := (pc >> 2) & b.mask
	ctr := b.table[i]
	predicted := ctr >= 2
	if taken && ctr < 3 {
		b.table[i] = ctr + 1
		b.moved(uint32(i)<<1 | 1)
	} else if !taken && ctr > 0 {
		b.table[i] = ctr - 1
		b.moved(uint32(i) << 1)
	}
	return predicted == taken
}

// moved logs one counter move, while logging.
func (b *branchPredictor) moved(m uint32) {
	if !b.logging {
		return
	}
	if len(b.moves) == cap(b.moves) {
		b.overflowed = true
		return
	}
	b.moves = append(b.moves, m)
}

// startLog starts recording the counters predict moves.
func (b *branchPredictor) startLog() {
	b.logging, b.moves, b.overflowed = true, b.moves[:0], false
}

// endLog stops recording and reports whether every counter is where
// startLog found it: the log held every move, and each counter it
// names stepped up as often as down.
func (b *branchPredictor) endLog() bool {
	b.logging = false
	if b.overflowed {
		return false
	}
	slices.Sort(b.moves) // a counter's moves side by side
	net := 0
	for i, m := range b.moves {
		net += int(m&1)*2 - 1
		if i+1 == len(b.moves) || b.moves[i+1]>>1 != m>>1 {
			if net != 0 {
				return false
			}
			net = 0
		}
	}
	return true
}

func (b *branchPredictor) reset() {
	for i := range b.table {
		b.table[i] = 1
	}
}
