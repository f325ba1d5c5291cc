package hwsim

// Op classifies a simulated instruction. The classification is the only
// semantic level the performance-counter model needs: it determines the
// base latency, which signals fire and how the memory system is probed.
type Op uint8

// Instruction classes understood by the simulated cores.
const (
	OpNop Op = iota
	OpInt
	OpLoad
	OpStore
	OpFPAdd
	OpFPMul
	OpFPDiv
	OpFMA     // fused multiply-add: one instruction, two FLOPs
	OpFPRound // precision conversion / rounding (frsp-style)
	OpBranch

	NumOps // sentinel: number of instruction classes
)

var opNames = [NumOps]string{
	OpNop:     "nop",
	OpInt:     "int",
	OpLoad:    "load",
	OpStore:   "store",
	OpFPAdd:   "fpadd",
	OpFPMul:   "fpmul",
	OpFPDiv:   "fpdiv",
	OpFMA:     "fma",
	OpFPRound: "fpround",
	OpBranch:  "branch",
}

// String returns the mnemonic for the instruction class.
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return "op?"
}

// IsFP reports whether the class is a floating-point arithmetic
// instruction (including FMA and rounding/conversion instructions).
func (o Op) IsFP() bool {
	switch o {
	case OpFPAdd, OpFPMul, OpFPDiv, OpFMA, OpFPRound:
		return true
	}
	return false
}

// Instr is one simulated instruction. Addr is the text (program counter)
// address; Mem is the effective address for loads and stores; Taken
// marks whether a branch is taken. The fields are ordered to pack into
// 24 bytes: a program that fits one batch keeps its instructions.
type Instr struct {
	Addr  uint64
	Mem   uint64
	Op    Op
	Taken bool
}

// InstrBytes is the fixed encoding size of a simulated instruction;
// consecutive instructions in a basic block are InstrBytes apart.
const InstrBytes = 4
