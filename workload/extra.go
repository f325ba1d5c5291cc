package workload

import (
	"fmt"
	"sort"

	"repro/internal/hwsim"
)

// LUConfig parameterizes the LU decomposition kernel.
type LUConfig struct {
	N      int
	UseFMA bool
	Base   uint64
}

// LU builds an in-place LU decomposition without pivoting (the kji
// textbook loop): ~2/3·N³ floating-point operations with an N(N-1)/2
// divide count — the divide-heavy profile that distinguishes it from
// matmul in FDV_INS measurements.
func LU(cfg LUConfig) Program {
	n := cfg.N
	if n <= 1 {
		n = 32
	}
	base := cfg.Base
	if base == 0 {
		base = DataBase
	}
	un := uint64(n)

	// One iteration = one (k,i) elimination row: a divide to form the
	// multiplier plus an update across columns j>k. Step k has n-k-1
	// rows; first[k] is its first iteration — n entries, so building
	// the program costs memory in proportion to n, not n².
	first := make([]int, n)
	var exp Expected
	for k := 0; k < n-1; k++ {
		rows := uint64(n - k - 1)
		cols := rows
		first[k+1] = first[k] + int(rows)
		// load a[i][k], load a[k][k], div, store multiplier,
		// then per column: load a[k][j], load a[i][j], fma (or
		// mul+add), store a[i][j]; plus the loop branch.
		exp.Loads += rows * (2 + 2*cols)
		exp.Stores += rows * (1 + cols)
		exp.FPDiv += rows
		if cfg.UseFMA {
			exp.FMA += rows * cols
			exp.Instrs += rows * (4 + 4*cols + 1)
		} else {
			exp.FPMul += rows * cols
			exp.FPAdd += rows * cols
			exp.Instrs += rows * (4 + 5*cols + 1)
		}
		exp.Branches += rows
	}
	iters := first[n-1]

	perIterMax := 4 + 5*(n-1) + 1
	p := &iterProgram{
		name:     fmt.Sprintf("lu(n=%d,fma=%v)", n, cfg.UseFMA),
		iters:    iters,
		expected: exp,
	}
	p.regions = []Region{{Name: "lu_kernel", Lo: TextBase, Hi: TextBase + uint64(perIterMax)*hwsim.InstrBytes}}
	p.gen = func(iter int, q []hwsim.Instr) []hwsim.Instr {
		step := sort.Search(n-1, func(k int) bool { return first[k+1] > iter })
		k := uint64(step)
		i := k + 1 + uint64(iter-first[step])
		e := emitter{pc: TextBase, q: q}
		e.mem(hwsim.OpLoad, base+(i*un+k)*8)
		e.mem(hwsim.OpLoad, base+(k*un+k)*8)
		e.op(hwsim.OpFPDiv)
		e.mem(hwsim.OpStore, base+(i*un+k)*8)
		for j := k + 1; j < un; j++ {
			e.mem(hwsim.OpLoad, base+(k*un+j)*8)
			e.mem(hwsim.OpLoad, base+(i*un+j)*8)
			if cfg.UseFMA {
				e.op(hwsim.OpFMA)
			} else {
				e.op(hwsim.OpFPMul)
				e.op(hwsim.OpFPAdd)
			}
			e.mem(hwsim.OpStore, base+(i*un+j)*8)
		}
		e.branch(iter != iters-1)
		return e.q
	}
	return p
}

// GUPSConfig parameterizes the random-access update kernel.
type GUPSConfig struct {
	TableWords int // table size in 8-byte words (power of two)
	Updates    int
	Base       uint64
	Seed       uint64
}

// GUPS builds the HPCC RandomAccess-style kernel: read-modify-write at
// pseudo-random table locations. It is the TLB/cache antagonist:
// virtually every update misses.
func GUPS(cfg GUPSConfig) Program {
	words := cfg.TableWords
	if words <= 0 {
		words = 1 << 16
	}
	if words&(words-1) != 0 {
		// Round up to a power of two so index masking is exact.
		p := 1
		for p < words {
			p <<= 1
		}
		words = p
	}
	updates := cfg.Updates
	if updates <= 0 {
		updates = words
	}
	base := cfg.Base
	if base == 0 {
		base = DataBase
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9f5
	}
	p := &iterProgram{
		name:  fmt.Sprintf("gups(words=%d,updates=%d)", words, updates),
		iters: updates,
		expected: Expected{
			Instrs:   4 * uint64(updates),
			Loads:    uint64(updates),
			Stores:   uint64(updates),
			Branches: uint64(updates),
		},
	}
	p.regions = []Region{{Name: "gups_kernel", Lo: TextBase, Hi: TextBase + 4*hwsim.InstrBytes}}
	mask := uint64(words - 1)
	p.gen = func(iter int, q []hwsim.Instr) []hwsim.Instr {
		// The HPCC LCG-ish index stream, derived purely from iter so
		// Reset replays identically.
		x := (uint64(iter) + seed) * 0x2545f4914f6cdd1d
		x ^= x >> 29
		addr := base + (x&mask)*8
		e := emitter{pc: TextBase, q: q}
		e.mem(hwsim.OpLoad, addr)
		e.op(hwsim.OpInt) // the xor
		e.mem(hwsim.OpStore, addr)
		e.branch(iter != updates-1)
		return e.q
	}
	return p
}

// DotConfig parameterizes the dot-product reduction.
type DotConfig struct {
	N      int
	UseFMA bool
	Base   uint64
}

// Dot builds the inner-product reduction sum += x[i]·y[i]: the
// 2-FLOPs-per-2-loads kernel whose balance sits between matmul and
// triad.
func Dot(cfg DotConfig) Program {
	n := cfg.N
	if n <= 0 {
		n = 1 << 15
	}
	base := cfg.Base
	if base == 0 {
		base = DataBase
	}
	un := uint64(n)
	baseY := base + un*8
	exp := Expected{
		Loads:    2 * un,
		Branches: un,
	}
	perIter := 0
	if cfg.UseFMA {
		exp.FMA = un
		exp.Instrs = 4 * un
		perIter = 4
	} else {
		exp.FPMul = un
		exp.FPAdd = un
		exp.Instrs = 5 * un
		perIter = 5
	}
	p := &iterProgram{
		name:     fmt.Sprintf("dot(n=%d,fma=%v)", n, cfg.UseFMA),
		iters:    n,
		expected: exp,
	}
	p.regions = []Region{{Name: "dot_kernel", Lo: TextBase, Hi: TextBase + uint64(perIter)*hwsim.InstrBytes}}
	p.gen = func(iter int, q []hwsim.Instr) []hwsim.Instr {
		i := uint64(iter)
		e := emitter{pc: TextBase, q: q}
		e.mem(hwsim.OpLoad, base+i*8)
		e.mem(hwsim.OpLoad, baseY+i*8)
		if cfg.UseFMA {
			e.op(hwsim.OpFMA)
		} else {
			e.op(hwsim.OpFPMul)
			e.op(hwsim.OpFPAdd)
		}
		e.branch(iter != n-1)
		return e.q
	}
	return p
}
