package hwsim_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/hwsim"
	"repro/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/exact.golden from this tree's simulator")

// exactRNG is the test's own splitmix64, so the generated streams do
// not depend on math/rand's algorithm.
type exactRNG uint64

func (r *exactRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *exactRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomStream builds n instructions of basic blocks over a text range
// wide enough to miss the I-cache, ending in branches that mostly loop
// among a hot set of blocks, with data addresses that stream, stay in a
// cache-sized window, or scatter over 256 MiB (TLB and L2 misses).
func randomStream(seed uint64, n int) []hwsim.Instr {
	r := exactRNG(seed)
	ops := []hwsim.Op{hwsim.OpNop, hwsim.OpInt, hwsim.OpInt, hwsim.OpLoad, hwsim.OpLoad,
		hwsim.OpStore, hwsim.OpFPAdd, hwsim.OpFPMul, hwsim.OpFPDiv, hwsim.OpFMA, hwsim.OpFPRound}
	const text, data = 0x400000, 0x20000000
	hot := make([]uint64, 48)
	for i := range hot {
		hot[i] = text + uint64(r.intn(1<<14))*hwsim.InstrBytes
	}
	out := make([]hwsim.Instr, 0, n)
	pc, seq := hot[0], uint64(data)
	for len(out) < n {
		for k := 1 + r.intn(24); k > 0 && len(out) < n-1; k-- {
			in := hwsim.Instr{Op: ops[r.intn(len(ops))], Addr: pc}
			if in.Op == hwsim.OpLoad || in.Op == hwsim.OpStore {
				switch r.intn(4) {
				case 0:
					in.Mem = seq
					seq += 8
				case 1, 2:
					in.Mem = data + uint64(r.intn(1<<15))*8
				default:
					in.Mem = data + uint64(r.intn(1<<25))*8
				}
			}
			out = append(out, in)
			pc += hwsim.InstrBytes
		}
		taken := r.intn(3) != 0
		out = append(out, hwsim.Instr{Op: hwsim.OpBranch, Addr: pc, Taken: taken})
		pc += hwsim.InstrBytes
		if taken {
			if r.intn(16) == 0 {
				pc = text + uint64(r.intn(1<<20))*hwsim.InstrBytes // cold far jump
			} else {
				pc = hot[r.intn(len(hot))]
			}
		}
	}
	return out
}

// exactStreams are the programs every configuration runs: two seeded
// random streams and the three kernels papid sessions tick.
func exactStreams(t *testing.T) map[string]func() hwsim.Stream {
	streams := map[string]func() hwsim.Stream{}
	for _, seed := range []uint64{1, 2} {
		instrs := randomStream(seed, 30000)
		streams[fmt.Sprintf("random%d", seed)] = func() hwsim.Stream {
			return &hwsim.SliceStream{Instrs: instrs}
		}
	}
	for _, name := range []string{"dot", "triad", "matmul"} {
		p, err := workload.ByName(name, 12)
		if err != nil {
			t.Fatal(err)
		}
		streams[name] = func() hwsim.Stream { p.Reset(); return p }
	}
	return streams
}

// digest accumulates everything observable about a run.
type digest struct {
	h hash.Hash
	b [8]byte
}

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.b[:], v)
		d.h.Write(d.b[:])
	}
}

// programAll arms as many native events as the register file takes,
// first fit in table order among events that add a signal, and returns
// the armed register indices.
func programAll(t *testing.T, c *hwsim.CPU) []int {
	a := c.Arch()
	assign := map[int]hwsim.NativeEvent{}
	var covered hwsim.SignalMask
	for _, ev := range a.Events {
		if ev.Signals&^covered == 0 {
			continue // prefer events that watch a signal no armed one does
		}
		for r := 0; r < a.NumCounters; r++ {
			if _, used := assign[r]; !used && ev.CounterMask&(1<<uint(r)) != 0 {
				assign[r] = ev
				covered |= ev.Signals
				break
			}
		}
	}
	if err := c.PMU().Program(assign); err != nil {
		t.Fatal(err)
	}
	regs := make([]int, 0, len(assign))
	for r := range assign {
		regs = append(regs, r)
	}
	sort.Ints(regs)
	return regs
}

// runExact drives one architecture variant through one stream with
// every mechanism armed — overflow on every register, the overflow
// handler charging its own cost, hardware sampling where the
// architecture has it, the cycle timer, interference — twice, with a
// stop / domain change / reset in between, and digests all of it.
func runExact(t *testing.T, a *hwsim.Arch, stream func() hwsim.Stream) string {
	c, err := hwsim.NewCPU(a, 42)
	if err != nil {
		t.Fatal(err)
	}
	d := &digest{h: sha256.New()}
	regs := programAll(t, c)
	for i, r := range regs {
		if err := c.PMU().SetOverflow(r, uint64(53+31*i)); err != nil {
			t.Fatal(err)
		}
	}
	c.PMU().SetHandler(func(pc uint64, reg int) {
		d.u64(pc, uint64(reg), c.Cycles())
		c.Charge(40, 12)
	})
	if a.HWSampling {
		err := c.ConfigureSampling(37, func(batch []hwsim.Sample) {
			for _, s := range batch {
				d.u64(s.PC, uint64(s.Op), uint64(s.Signals), uint64(s.Cost))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.SetTimer(1500, func() {
		d.u64(c.Cycles(), c.Retired())
		c.Charge(25, 6)
	})
	c.SetInterference(4000, 650)

	state := func() {
		for s := hwsim.Signal(0); s < hwsim.NumSignals; s++ {
			d.u64(c.Truth(s))
		}
		vals := make([]uint64, a.NumCounters)
		c.PMU().ReadAll(vals)
		d.u64(vals...)
		d.u64(c.Cycles(), c.RealCycles(), c.Retired(), c.SamplesTaken())
	}

	c.PMU().Start()
	c.Run(stream())
	state()
	c.PMU().Stop()
	c.Run(stream()) // counters off: truth moves, registers do not
	state()
	c.PMU().SetDomain(hwsim.DomainUser)
	c.PMU().Reset()
	c.PMU().Start()
	c.Run(stream())
	d.u64(uint64(c.FlushSamples()))
	state()
	return fmt.Sprintf("%x", d.h.Sum(nil))
}

// TestExactCounts pins the simulator's observable behaviour to digests
// recorded before the retire loop was optimized: any drift in a truth
// total, a register, a clock, the (pc, reg) overflow sequence or the
// sample stream — on any built-in architecture, with overflow
// interrupts delivered in order and skidded — fails here. Regenerate
// with -update only for a deliberate change to the model.
func TestExactCounts(t *testing.T) {
	got := map[string]string{}
	streams := exactStreams(t)
	for _, base := range hwsim.Architectures() {
		for _, skid := range []struct {
			name     string
			min, max int
		}{{"inorder", 0, 0}, {"skid", 2, 7}} {
			a := *base
			a.SkidMin, a.SkidMax = skid.min, skid.max
			for name, stream := range streams {
				got[a.Platform+"/"+skid.name+"/"+name] = runExact(t, &a, stream)
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	path := filepath.Join("testdata", "exact.golden")
	if *update {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			want[k] = v
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, this tree runs %d", len(want), len(got))
	}
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, golden %s", k, got[k][:16], want[k])
		}
	}
}

// TestFoldEqualsPerInstruction covers what TestExactCounts cannot. That
// test arms a threshold on every register, so it never runs papid's
// configuration — counting with nothing watching — in which ExecSlice
// retires a batch on truth alone and folds it into the registers once.
// Each program runs on two cores: one as papid runs it (folded), one
// with a threshold of 2^62 on one register, which never fires but keeps
// every instruction on the per-instruction path. The domain switches to
// kernel and then to user between runs. Each pair runs in five modes:
//   - timer: the timer reads every register and charges its own cost,
//     so a batch is folded and reopened at every tick; interference on;
//   - quiet, interference on or off: no timer, so a folded slice retires
//     in one loop and its time advances once;
//   - replay, interference on or off: no timer, and each of papid's
//     programs — every workload at n = 2, 4 and 8 — is reset and run
//     whole six times per domain, as a live session ticks it, so a
//     program that fits one slice replays from its memo once the core
//     reaches a fixed point. Between domains a per-instruction run of
//     the program with every branch inverted moves the predictor, and
//     then ResetMemorySystem empties the caches, so a stale memo shows.
//
// In the first three the program is lent in slices of 1 to 700
// instructions, with truth, registers and clocks read between every
// two; in the replay modes they are read after every run. Every read,
// truth total and clock must agree.
func TestFoldEqualsPerInstruction(t *testing.T) {
	streams := exactStreams(t)
	for _, m := range foldModes {
		t.Run(m.name, func(t *testing.T) {
			programs := streams
			if m.replay {
				programs = replayPrograms(t)
			}
			total := 0
			for _, a := range hwsim.Architectures() {
				for name, stream := range programs {
					folded, replayed := observeRuns(t, a, stream, m, false)
					each, watchReplayed := observeRuns(t, a, stream, m, true)
					total += replayed
					if watchReplayed != 0 {
						t.Errorf("%s/%s: the watched core replayed %d runs", a.Platform, name, watchReplayed)
					}
					if len(folded) != len(each) {
						t.Errorf("%s/%s: %d observations folded, %d per instruction", a.Platform, name, len(folded), len(each))
						continue
					}
					for i := range folded {
						if folded[i] != each[i] {
							t.Errorf("%s/%s: folded %s, per instruction %s", a.Platform, name, folded[i], each[i])
							break
						}
					}
				}
			}
			if m.replay {
				if total == 0 {
					t.Error("no run was replayed: the mode compared nothing but simulated slices")
				}
				t.Logf("%d runs replayed", total)
			}
		})
	}
}

// foldMode is one configuration TestFoldEqualsPerInstruction runs.
type foldMode struct {
	name         string
	timer        bool
	interference bool
	replay       bool
}

var foldModes = []foldMode{
	{"timer", true, true, false},
	{"quiet", false, true, false},
	{"quiet-alone", false, false, false},
	{"replay", false, true, true},
	{"replay-alone", false, false, true},
}

// replayRuns is how often the replay modes run a program per domain.
const replayRuns = 6

// replayPrograms are the replay modes' programs: every workload papid
// sessions may tick, at n = 2, 4 and 8.
func replayPrograms(t *testing.T) map[string]func() hwsim.Stream {
	programs := map[string]func() hwsim.Stream{}
	for _, name := range workload.Names() {
		for _, n := range []int{2, 4, 8} {
			p, err := workload.ByName(name, n)
			if err != nil {
				t.Fatal(err)
			}
			programs[fmt.Sprintf("%s/n=%d", name, n)] = func() hwsim.Stream { p.Reset(); return p }
		}
	}
	return programs
}

// invertBranches is the stream's whole program with every branch's
// outcome inverted.
func invertBranches(s hwsim.Stream) []hwsim.Instr {
	var out []hwsim.Instr
	for b := s.Next(); len(b) > 0; b = s.Next() {
		out = append(out, b...)
	}
	for i := range out {
		out[i].Taken = out[i].Op == hwsim.OpBranch && !out[i].Taken
	}
	return out
}

// observeRuns runs stream on a fresh core in three domains — all,
// kernel only, user only — and lists the core's state between every two
// slices (or, replaying, after every run), every timer-time register
// read, and each domain's truth totals, registers and clocks. watch
// arms the never-firing threshold. It also returns how many runs
// probed no instruction fetch, that is, were replayed.
func observeRuns(t *testing.T, a *hwsim.Arch, stream func() hwsim.Stream, m foldMode, watch bool) (obs []string, replayed int) {
	c, err := hwsim.NewCPU(a, 42)
	if err != nil {
		t.Fatal(err)
	}
	regs := programAll(t, c)
	if watch {
		if err := c.PMU().SetOverflow(regs[0], 1<<62); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]uint64, a.NumCounters)
	if m.timer {
		c.SetTimer(1500, func() {
			c.PMU().ReadAll(vals)
			obs = append(obs, fmt.Sprintf("timer at cycle %d: registers %v", c.Cycles(), vals))
			c.Charge(25, 6)
		})
	}
	if m.interference {
		c.SetInterference(4000, 650)
	}
	state := func(when string) {
		c.PMU().ReadAll(vals)
		obs = append(obs, fmt.Sprintf("%s: truth %v, registers %v, cycles %d, real %d, retired %d",
			when, truthOf(c), vals, c.Cycles(), c.RealCycles(), c.Retired()))
	}
	c.PMU().Start()
	for _, d := range []hwsim.Domain{hwsim.DomainAll, hwsim.DomainKernel, hwsim.DomainUser} {
		c.PMU().SetDomain(d)
		switch {
		case !m.replay:
			c.Run(&slicedStream{s: stream(), r: exactRNG(d), observe: func() { state("between slices") }})
		case d == hwsim.DomainKernel:
			// Stopped, the core retires per instruction.
			c.PMU().Stop()
			c.Run(&hwsim.SliceStream{Instrs: invertBranches(stream())})
			c.PMU().Start()
		case d == hwsim.DomainUser:
			c.ResetMemorySystem()
		}
		for run := 0; m.replay && run < replayRuns; run++ {
			probes := hwsim.FetchProbes(c)
			c.Run(stream())
			if hwsim.FetchProbes(c) == probes {
				replayed++
			}
			state(fmt.Sprintf("domain %d, after run %d", d, run))
		}
		state(fmt.Sprintf("after domain %d", d))
	}
	return obs, replayed
}

// slicedStream lends a stream's instructions in slices of 1 to 700,
// calling observe before lending each one.
type slicedStream struct {
	s       hwsim.Stream
	rest    []hwsim.Instr
	r       exactRNG
	observe func()
}

func (o *slicedStream) Next() []hwsim.Instr {
	o.observe()
	if len(o.rest) == 0 {
		o.rest = o.s.Next()
	}
	n := min(len(o.rest), 1+o.r.intn(700))
	b := o.rest[:n]
	o.rest = o.rest[n:]
	return b
}

// TestReplayEngages keeps the replay modes from passing vacuously: a
// live papid session's tick — dot n=8 on aix-power3, four events
// counting, no timer — is simulated on its first run (cold misses) and
// its second (the predictor settles), and from the third on it is
// replayed, probing nothing, with the counts each run retired before.
// A shorter frozen slice of the same array is not replayed.
func TestReplayEngages(t *testing.T) {
	a, _ := hwsim.ArchByPlatform(hwsim.PlatformAIXPower3)
	c := hwsim.MustNewCPU(a, 1)
	programAll(t, c)
	c.PMU().Start()
	p, err := workload.ByName("dot", 8)
	if err != nil {
		t.Fatal(err)
	}
	var last [hwsim.NumSignals]uint64
	cycles := uint64(0)
	for run := 1; run <= 8; run++ {
		probes, before, start := hwsim.FetchProbes(c), truthOf(c), c.Cycles()
		p.Reset()
		c.Run(p)
		after := truthOf(c)
		var delta [hwsim.NumSignals]uint64
		for s := range delta {
			delta[s] = after[s] - before[s]
		}
		if replayed := hwsim.FetchProbes(c) == probes; replayed != (run >= 3) {
			t.Fatalf("run %d: replayed %v, want %v", run, replayed, run >= 3)
		}
		if run >= 3 && (delta != last || c.Cycles()-start != cycles) {
			t.Fatalf("run %d: truth %v in %d cycles, the run before %v in %d", run, delta, c.Cycles()-start, last, cycles)
		}
		last, cycles = delta, c.Cycles()-start
	}
	if got, want := last[hwsim.SigInstrs], p.Expected().Instrs; got != want {
		t.Errorf("a replayed run retired %d instructions, want %d", got, want)
	}
	// A prefix of the memoized queue lies in the same array but is not
	// the same slice: it is simulated.
	p.Reset()
	q := p.Next()
	instrs := c.Truth(hwsim.SigInstrs)
	c.Run(&frozenSlices{rest: q[:len(q)-8], n: len(q)})
	if got, want := c.Truth(hwsim.SigInstrs)-instrs, uint64(len(q)-8); got != want {
		t.Errorf("a frozen prefix of the memoized slice retired %d instructions, want %d", got, want)
	}
}

// truthOf reads every truth total.
func truthOf(c *hwsim.CPU) (t [hwsim.NumSignals]uint64) {
	for s := range t {
		t[s] = c.Truth(hwsim.Signal(s))
	}
	return t
}

// frozen reports whether s promises that the slice its last Next lent
// is frozen (see hwsim.Stream).
func frozen(s hwsim.Stream) bool {
	f, ok := s.(interface{ Frozen() bool })
	return ok && f.Frozen()
}

// TestRewrittenSliceIsNeverFrozen holds streams to the half of the
// lending contract the memo trusts: a stream whose slice is written
// again never reports it frozen. A streaming workload (triad n=4096)
// regenerates every batch into one queue. A SliceStream lends its
// caller's buffer, which here is rewritten in place between the third
// and fourth runs: every access still hits and every branch is
// predicted as before, but the instructions are other ones, so a core
// that took the buffer for frozen would replay the old counts. The
// buffer runs on a folded core and on one held per instruction, which
// must agree, and neither replays.
func TestRewrittenSliceIsNeverFrozen(t *testing.T) {
	p, err := workload.ByName("triad", 4096)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		p.Reset()
		for b := p.Next(); len(b) > 0; b = p.Next() {
			if frozen(p) {
				t.Fatalf("run %d: %s reports a batch it regenerates frozen", run, p.Name())
			}
		}
	}
	buf := make([]hwsim.Instr, 96)
	fill := func(op hwsim.Op) {
		for i := range buf {
			buf[i] = hwsim.Instr{Op: op, Addr: 0x400000 + uint64(i)*hwsim.InstrBytes}
			if i%4 == 3 {
				buf[i].Op, buf[i].Mem = hwsim.OpLoad, 0x10000000+uint64(i%32)*8
			}
		}
	}
	for _, a := range hwsim.Architectures() {
		var obs [2][]string
		for i, watch := range []bool{false, true} {
			c := hwsim.MustNewCPU(a, 1)
			regs := programAll(t, c)
			if watch {
				if err := c.PMU().SetOverflow(regs[0], 1<<62); err != nil {
					t.Fatal(err)
				}
			}
			c.PMU().Start()
			for run := 0; run < 6; run++ {
				if run%3 == 0 {
					fill([]hwsim.Op{hwsim.OpInt, hwsim.OpFPAdd}[run/3])
				}
				s := &hwsim.SliceStream{Instrs: buf}
				probes := hwsim.FetchProbes(c)
				c.Run(s)
				if frozen(s) || hwsim.FetchProbes(c) == probes {
					t.Fatalf("%s, watch %v, run %d: a SliceStream's buffer was taken for frozen", a.Platform, watch, run)
				}
				obs[i] = append(obs[i], fmt.Sprintf("truth %v, cycles %d", truthOf(c), c.Cycles()))
			}
		}
		for i := range obs[0] {
			if obs[0][i] != obs[1][i] {
				t.Fatalf("%s, run %d: folded %s, per instruction %s", a.Platform, i, obs[0][i], obs[1][i])
			}
		}
	}
}

// FuzzFoldEqualsPerInstruction runs arbitrary instructions, five bytes
// each, on two cores as TestFoldEqualsPerInstruction does — folded and
// per instruction — with no timer, and interference, the slice length
// and a repeat count (1 to 6) chosen by the input. The program runs that
// many times in the all domain and again in the user domain on the
// caches the first left warm. It is lent frozen, as a whole workload
// program is, so a program that fits one slice and reaches a fixed
// point is replayed; the seed replayingLoop must be. Truth, registers
// and clocks must agree after every run. Both loops share one
// retirement body, so the fuzzer also holds that body to the cost
// model: every cycle is an instruction's base latency or a stall cycle,
// and every retired instruction raised SigInstrs.
func FuzzFoldEqualsPerInstruction(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 2, 0x10, 3, 0x41, 9, 0x80, 0xff, 0, 1, 3, 4, 5, 6, 7})
	f.Add([]byte{3, 0, 1, 200, 2, 0, 0xff, 0xff, 3, 1, 0x7f, 0x10, 0x20, 9, 9, 0xc0, 0, 1})
	f.Add(replayingLoop)
	seed := exactRNG(7)
	big := make([]byte, 3+5*120)
	for i := range big {
		big[i] = byte(seed.next())
	}
	f.Add(big)
	archs := hwsim.Architectures()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		input := data
		a, flags, reps, data := archs[int(data[0])%len(archs)], data[1], 1+int(data[2])%6, data[3:]
		instrs := make([]hwsim.Instr, 0, len(data)/5)
		for ; len(data) >= 5; data = data[5:] {
			in := hwsim.Instr{
				Op:    hwsim.Op(data[0] % byte(hwsim.NumOps)),
				Taken: data[0]&0x80 != 0,
				// Text and data addresses over 16 MiB, 64 KiB apart at
				// the top byte: same-line, same-page, set-conflicting
				// and L2-missing probes all occur.
				Addr: 0x400000 + uint64(data[1])<<16 + uint64(data[2])*hwsim.InstrBytes,
				Mem:  0x20000000 + uint64(data[3])<<16 + uint64(data[4])*8,
			}
			instrs = append(instrs, in)
		}
		slice := 1 + int(flags>>1)*8
		var base uint64
		for _, in := range instrs {
			base += uint64(a.Latency[in.Op])
		}
		run := func(watch bool) []string {
			c, err := hwsim.NewCPU(a, 42)
			if err != nil {
				t.Fatal(err)
			}
			regs := programAll(t, c)
			if watch {
				if err := c.PMU().SetOverflow(regs[0], 1<<62); err != nil {
					t.Fatal(err)
				}
			}
			if flags&1 != 0 {
				c.SetInterference(97, 13)
			}
			var obs []string
			vals := make([]uint64, a.NumCounters)
			c.PMU().Start()
			runs, replayed := uint64(0), 0
			for _, d := range []hwsim.Domain{hwsim.DomainAll, hwsim.DomainUser} {
				c.PMU().SetDomain(d)
				for range reps {
					probes := hwsim.FetchProbes(c)
					c.Run(&frozenSlices{rest: instrs, n: slice})
					if len(instrs) > 0 && hwsim.FetchProbes(c) == probes {
						replayed++
					}
					runs++
					if got, want := c.Cycles(), runs*base+c.Truth(hwsim.SigStallCycles); got != want {
						t.Fatalf("%s, watch %v: %d cycles, want %d base latency + %d stall", a.Platform, watch, got, runs*base, c.Truth(hwsim.SigStallCycles))
					}
					if got, want := c.Truth(hwsim.SigInstrs), c.Retired(); got != want || got != runs*uint64(len(instrs)) {
						t.Fatalf("%s, watch %v: %d instructions raised, %d retired, %d run", a.Platform, watch, got, want, runs*uint64(len(instrs)))
					}
					c.PMU().ReadAll(vals)
					obs = append(obs, fmt.Sprintf("domain %d, run %d: truth %v, registers %v, cycles %d, real %d, retired %d",
						d, runs, truthOf(c), vals, c.Cycles(), c.RealCycles(), c.Retired()))
				}
			}
			if !watch && replayed == 0 && bytes.Equal(input, replayingLoop) {
				t.Fatalf("%s: the replaying loop ran %d times and never replayed", a.Platform, runs)
			}
			return obs
		}
		folded, each := run(false), run(true)
		for i := range folded {
			if folded[i] != each[i] {
				t.Fatalf("%s, %d instructions in slices of %d, %d times: folded %s, per instruction %s",
					a.Platform, len(instrs), slice, reps, folded[i], each[i])
			}
		}
	})
}

// replayingLoop is a FuzzFoldEqualsPerInstruction seed: one slice, run
// six times, of int ops, loads and a taken branch, which replays once
// warm.
var replayingLoop = []byte{1, 0xfe, 5,
	byte(hwsim.OpInt), 0, 0, 0, 0,
	byte(hwsim.OpLoad), 0, 1, 0, 1,
	byte(hwsim.OpStore), 0, 2, 0, 2,
	0x80 | byte(hwsim.OpBranch), 0, 3, 0, 0}

// frozenSlices lends rest in slices of n and reports each frozen: the
// fuzzer builds its program once and never writes it again.
type frozenSlices struct {
	rest []hwsim.Instr
	n    int
}

func (s *frozenSlices) Next() []hwsim.Instr {
	b := s.rest[:min(len(s.rest), s.n)]
	s.rest = s.rest[len(b):]
	return b
}

func (s *frozenSlices) Frozen() bool { return true }

// TestRunDoesNotAllocate pins who owns instruction memory: the core
// owns none, and a program owns one queue made by its first run. Every
// later Reset+Run on a counting core costs no heap at all — whether the
// program fit one batch (dot n=8: a core's second run arms the memo
// with the queue itself, and the ones after replay it) or regenerates
// batch by batch into the same queue (triad n=4096). The second run is
// counted on cores of its own, since testing.AllocsPerRun's warm-up
// call would otherwise be the only one to arm the memo.
func TestRunDoesNotAllocate(t *testing.T) {
	a, _ := hwsim.ArchByPlatform(hwsim.PlatformAIXPower3)
	for _, tc := range []struct {
		name string
		n    int
	}{{"dot", 8}, {"triad", 4096}} {
		p, err := workload.ByName(tc.name, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		cores := make([]*hwsim.CPU, 6) // AllocsPerRun's warm-up and five runs
		for i := range cores {
			cores[i] = hwsim.MustNewCPU(a, 1)
			programAll(t, cores[i])
			cores[i].PMU().Start()
			p.Reset()
			cores[i].Run(p) // the first makes the program's queue
		}
		next := 0
		if n := testing.AllocsPerRun(5, func() { p.Reset(); cores[next].Run(p); next++ }); n != 0 {
			t.Errorf("%s: a core's second Reset+Run allocates %v times per call, want 0", p.Name(), n)
		}
		c := cores[0]
		probes := hwsim.FetchProbes(c)
		if n := testing.AllocsPerRun(5, func() { p.Reset(); c.Run(p) }); n != 0 {
			t.Errorf("%s: Reset+Run allocates %v times per call, want 0", p.Name(), n)
		}
		if replayed := hwsim.FetchProbes(c) == probes; replayed != (tc.name == "dot") {
			t.Errorf("%s: later runs replayed %v", p.Name(), replayed)
		}
	}
}

// TestLentSliceIsReadOnly holds the core to its side of the lending
// contract: with every register armed and overflowing, the handler and
// the timer installed, a hundred runs leave a replayed program's queue
// bit for bit as it was generated.
func TestLentSliceIsReadOnly(t *testing.T) {
	a, _ := hwsim.ArchByPlatform(hwsim.PlatformLinuxX86) // out of order: skidded delivery too
	c := hwsim.MustNewCPU(a, 7)
	for i, r := range programAll(t, c) {
		if err := c.PMU().SetOverflow(r, uint64(53+31*i)); err != nil {
			t.Fatal(err)
		}
	}
	c.PMU().SetHandler(func(uint64, int) { c.Charge(40, 12) })
	c.SetTimer(1500, func() { c.Charge(25, 6) })
	p, err := workload.ByName("dot", 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := func() string {
		p.Reset()
		d := &digest{h: sha256.New()}
		n := 0
		for b := p.Next(); len(b) > 0; b = p.Next() {
			for _, in := range b {
				taken := uint64(0)
				if in.Taken {
					taken = 1
				}
				d.u64(in.Addr, in.Mem, uint64(in.Op), taken)
			}
			n += len(b)
		}
		if want := p.Expected().Instrs; uint64(n) != want {
			t.Fatalf("%s lends %d instructions, want %d", p.Name(), n, want)
		}
		return fmt.Sprintf("%x", d.h.Sum(nil))
	}
	before := sum()
	c.PMU().Start()
	for i := 0; i < 100; i++ {
		p.Reset()
		c.Run(p)
	}
	if after := sum(); after != before {
		t.Errorf("queue digest %s after 100 runs, %s before: the core wrote through a lent slice", after[:16], before[:16])
	}
}

// TestInstrSize pins the field order that packs an instruction into
// three words: a replayed program's queue is what stays resident.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(hwsim.Instr{}); got != 24 {
		t.Errorf("unsafe.Sizeof(hwsim.Instr{}) = %d, want 24", got)
	}
}

// TestNestedRun checks the case lending makes safe by construction: a
// handler that itself calls Run while the outer Run's batch is still
// being retired. The core holds no buffer the nested run could
// overwrite, so outer and inner each retire exactly their own
// instructions — for a fixed slice, and for a workload program run
// inside a replayed instance of the same workload.
func TestNestedRun(t *testing.T) {
	a, _ := hwsim.ArchByPlatform(hwsim.PlatformCrayT3E) // in order: no skid
	c := hwsim.MustNewCPU(a, 1)
	regs := programAll(t, c)
	if err := c.PMU().SetOverflow(regs[len(regs)-1], 100); err != nil {
		t.Fatal(err)
	}
	inner := make([]hwsim.Instr, 300)
	for i := range inner {
		inner[i] = hwsim.Instr{Op: hwsim.OpFPDiv, Addr: 0x500000 + uint64(i)*hwsim.InstrBytes}
	}
	fires := 0
	c.PMU().SetHandler(func(uint64, int) {
		if fires++; fires == 1 {
			c.Run(&hwsim.SliceStream{Instrs: inner})
		}
	})
	outer := randomStream(3, 2000)
	var wantLoads uint64
	for _, in := range outer {
		if in.Op == hwsim.OpLoad {
			wantLoads++
		}
	}
	c.PMU().Start()
	c.Run(&hwsim.SliceStream{Instrs: outer})
	if fires == 0 {
		t.Fatal("no overflow fired; the nested Run never happened")
	}
	if got := c.Truth(hwsim.SigFPDiv); got < uint64(len(inner)) {
		t.Errorf("nested stream retired %d of its %d instructions", got, len(inner))
	}
	if got := c.Truth(hwsim.SigLoads); got != wantLoads {
		t.Errorf("outer stream retired %d loads, want %d: nested Run clobbered its batch", got, wantLoads)
	}
	if got, want := c.Retired(), uint64(len(outer)+len(inner)); got != want {
		t.Errorf("retired %d, want %d", got, want)
	}

	// A workload program inside a replayed one: the handler runs a
	// fresh dot n=8 while the core is retiring the outer dot's queue.
	prog, err := workload.ByName("dot", 8)
	if err != nil {
		t.Fatal(err)
	}
	c.PMU().Stop()
	c.Run(prog) // first run generates; the runs below replay
	exp := prog.Expected()
	for run := 0; run < 2; run++ {
		fires = 0
		c.PMU().SetHandler(func(uint64, int) {
			if fires++; fires == 1 {
				in, _ := workload.ByName("dot", 8)
				c.Run(in)
			}
		})
		retired, loads := c.Retired(), c.Truth(hwsim.SigLoads)
		c.PMU().Start()
		prog.Reset()
		c.Run(prog)
		c.PMU().Stop()
		if fires == 0 {
			t.Fatal("no overflow fired inside the replayed program")
		}
		if got, want := c.Retired()-retired, 2*exp.Instrs; got != want {
			t.Errorf("run %d: outer and nested dot retired %d instructions, want %d", run, got, want)
		}
		if got, want := c.Truth(hwsim.SigLoads)-loads, 2*exp.Loads; got != want {
			t.Errorf("run %d: outer and nested dot retired %d loads, want %d", run, got, want)
		}
	}
}
