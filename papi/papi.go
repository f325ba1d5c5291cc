// Package papi is a Go reproduction of PAPI, the Performance API: a
// portable interface to hardware performance counters (Dongarra et al.,
// "Experiences and Lessons Learned with a Portable Interface to
// Hardware Performance Counters", 2003).
//
// The package mirrors the C library's two-level design:
//
//   - the high-level interface — Thread.StartCounters, ReadCounters,
//     AccumCounters, StopCounters, Flops and IPC — for simple, accurate
//     measurements with no bookkeeping; and
//   - the low-level interface — EventSets with explicit Add/Start/
//     Read/Accum/Reset/Stop control, native event access, opt-in
//     multiplexing (SetMultiplex), counter-overflow callbacks
//     (SetOverflow) and SVR4-compatible statistical profiling (Profil)
//     — for tool developers.
//
// Counters are provided by simulated machines: seven architecture
// models reproducing the paper's platforms (Linux/x86, AIX POWER3,
// Tru64 Alpha with DADD/ProfileMe sampling, Linux/IA-64 with EARs,
// Cray T3E, Solaris UltraSPARC, IRIX R10000), each with its documented
// counter constraints, access costs, interrupt skid and quirks. The
// portable layer — preset tables, derived events, counter allocation by
// bipartite matching, 64-bit extension of narrow counters, multiplex
// estimation, overflow dispatch, portable timers, the PAPI 3 memory
// introspection — is implemented in full and identical across
// platforms, which is the paper's point.
//
// A minimal session:
//
//	sys, err := papi.Init(papi.Options{Platform: papi.PlatformAIXPower3})
//	th := sys.Main()
//	es := th.NewEventSet()
//	es.AddAll(papi.FP_OPS, papi.TOT_CYC)
//	es.Start()
//	th.Run(program) // a workload.Stream executing on the simulated core
//	values := make([]int64, 2)
//	es.Stop(values)
package papi

import (
	"repro/internal/core"
	"repro/internal/hwsim"
	"repro/internal/profil"
)

// Core types, re-exported. The engine lives in internal/core; these
// aliases are the public surface, like papi.h over papi_internal.h.
type (
	// System is an initialized library instance bound to one simulated
	// machine (PAPI_library_init).
	System = core.System
	// Options configures Init.
	Options = core.Options
	// Thread is one thread of execution with private counters.
	Thread = core.Thread
	// EventSet is the low-level unit of measurement.
	EventSet = core.EventSet
	// Event is a preset (PAPI_*) or native event code.
	Event = core.Event
	// State is an EventSet lifecycle state.
	State = core.State
	// Errno is a PAPI error code; use IsErr to test wrapped errors.
	Errno = core.Errno
	// OverflowHandler receives counter-overflow notifications.
	OverflowHandler = core.OverflowHandler
	// RateResult is returned by the Flops and IPC convenience calls.
	RateResult = core.RateResult
	// PresetAvail describes preset availability (papi_avail).
	PresetAvail = core.PresetAvail
	// Profile is an SVR4-compatible profiling histogram (PAPI_profil).
	Profile = profil.Profile
	// MemNodeInfo, MemProcessInfo, MemThreadInfo and MemObjectInfo are
	// the PAPI 3 memory-utilization reports.
	MemNodeInfo    = core.MemNodeInfo
	MemProcessInfo = core.MemProcessInfo
	MemThreadInfo  = core.MemThreadInfo
	MemObjectInfo  = core.MemObjectInfo
)

// Stream is an instruction stream runnable on a simulated core; the
// workload package provides implementations. Next lends the stream's
// next instructions: the slice stays the stream's, is read-only to the
// caller and valid until that stream's next Next or Reset, so an
// overflow or timer handler may Run another stream on the thread it
// interrupted but never the one being retired.
type Stream = hwsim.Stream

// Init initializes the library (PAPI_library_init).
func Init(opts Options) (*System, error) { return core.NewSystem(opts) }

// MustInit is Init that panics on error, for examples and tests.
func MustInit(opts Options) *System { return core.MustNewSystem(opts) }

// The standard preset events.
const (
	TOT_CYC = core.TOT_CYC
	TOT_INS = core.TOT_INS
	LD_INS  = core.LD_INS
	SR_INS  = core.SR_INS
	LST_INS = core.LST_INS
	FP_INS  = core.FP_INS
	FP_OPS  = core.FP_OPS
	FMA_INS = core.FMA_INS
	FDV_INS = core.FDV_INS
	L1_DCA  = core.L1_DCA
	L1_DCM  = core.L1_DCM
	L1_ICM  = core.L1_ICM
	L2_TCA  = core.L2_TCA
	L2_TCM  = core.L2_TCM
	TLB_DM  = core.TLB_DM
	BR_INS  = core.BR_INS
	BR_TKN  = core.BR_TKN
	BR_MSP  = core.BR_MSP
	RES_STL = core.RES_STL
)

// PAPI error codes.
const (
	EINVAL     = core.EINVAL
	ENOMEM     = core.ENOMEM
	ESYS       = core.ESYS
	ESBSTR     = core.ESBSTR
	ECLOST     = core.ECLOST
	EBUG       = core.EBUG
	ENOEVNT    = core.ENOEVNT
	ECNFLCT    = core.ECNFLCT
	ENOTRUN    = core.ENOTRUN
	EISRUN     = core.EISRUN
	ENOEVST    = core.ENOEVST
	ENOTPRESET = core.ENOTPRESET
	ENOCNTR    = core.ENOCNTR
	EMISC      = core.EMISC
	ENOSUPP    = core.ENOSUPP
)

// EventSet states.
const (
	StateStopped = core.StateStopped
	StateRunning = core.StateRunning
)

// Domain selects which execution modes counters observe
// (PAPI_set_domain); see EventSet.SetDomain.
type Domain = hwsim.Domain

// Counting domains.
const (
	DOM_USER   = hwsim.DomainUser
	DOM_KERNEL = hwsim.DomainKernel
	DOM_ALL    = hwsim.DomainAll
)

// Supported platform keys.
const (
	PlatformLinuxX86   = hwsim.PlatformLinuxX86
	PlatformAIXPower3  = hwsim.PlatformAIXPower3
	PlatformTru64Alpha = hwsim.PlatformTru64Alpha
	PlatformLinuxIA64  = hwsim.PlatformLinuxIA64
	PlatformCrayT3E    = hwsim.PlatformCrayT3E
	PlatformSolaris    = hwsim.PlatformSolaris
	PlatformIRIXMips   = hwsim.PlatformIRIXMips
	PlatformWindows    = hwsim.PlatformWindows
)

// Platforms lists all supported platform keys.
func Platforms() []string { return hwsim.Platforms() }

// Presets returns all standard preset events.
func Presets() []Event { return core.Presets() }

// EventName returns the canonical event name (PAPI_* for presets).
func EventName(e Event) string { return core.EventName(e) }

// EventDescription returns a preset's description.
func EventDescription(e Event) string { return core.EventDescription(e) }

// PresetByName resolves a "PAPI_TOT_INS"-style name.
func PresetByName(name string) (Event, bool) { return core.PresetByName(name) }

// ResolveEvent resolves a preset or platform-native event name on an
// initialized System (sugar over PresetByName + System.NativeByName).
// Session-facing services — cmd/papirun and the papid daemon — accept
// either kind of name and resolve them through this single entry point.
func ResolveEvent(sys *System, name string) (Event, bool) { return sys.ResolveEvent(name) }

// IsErr reports whether err wraps the given PAPI error code.
func IsErr(err error, code Errno) bool { return core.IsErr(err, code) }

// NewProfile builds an SVR4 profiling histogram of nbuckets buckets
// starting at text offset with the given fixed-point scale (65536 = one
// bucket per two bytes). Attach it with EventSet.Profil.
func NewProfile(offset uint64, nbuckets int, scale uint32) (*Profile, error) {
	return profil.New(offset, nbuckets, scale)
}

// NewProfileCovering builds a profile spanning [lo, hi) at the given
// bytes-per-bucket granularity.
func NewProfileCovering(lo, hi uint64, bytesPerBucket int) (*Profile, error) {
	return profil.Covering(lo, hi, bytesPerBucket)
}

// ProfileScaleUnit is the fixed-point unit of profile scales.
const ProfileScaleUnit = profil.ScaleUnit
