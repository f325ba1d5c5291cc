// Package vprof reproduces the role of VProf in the paper (§2, §3): an
// end-user statistical profiler that uses PAPI_profil to collect
// histogram data "which can then be correlated with application source
// code". Any hardware counter metric can drive the profile, not just
// time — the paper's point about monotonically increasing resource
// functions.
package vprof

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hwsim"
	"repro/papi"
	"repro/workload"
)

// SourceLoc is a source coordinate.
type SourceLoc struct {
	File string
	Line int
}

func (s SourceLoc) String() string { return fmt.Sprintf("%s:%d", s.File, s.Line) }

type mapEntry struct {
	region        workload.Region
	file          string
	startLine     int
	instrsPerLine int
}

// SourceMap relates text addresses to source lines — the debug
// information a real vprof reads from the executable.
type SourceMap struct {
	entries []mapEntry
}

// Add registers a text region as file's lines starting at startLine,
// with instrsPerLine instructions mapping to each line.
func (m *SourceMap) Add(region workload.Region, file string, startLine, instrsPerLine int) error {
	if instrsPerLine <= 0 {
		return fmt.Errorf("vprof: instrsPerLine must be positive")
	}
	for _, e := range m.entries {
		if region.Lo < e.region.Hi && e.region.Lo < region.Hi {
			return fmt.Errorf("vprof: region %q overlaps %q", region.Name, e.region.Name)
		}
	}
	m.entries = append(m.entries, mapEntry{region, file, startLine, instrsPerLine})
	sort.Slice(m.entries, func(i, j int) bool { return m.entries[i].region.Lo < m.entries[j].region.Lo })
	return nil
}

// Locate maps a text address to its source line.
func (m *SourceMap) Locate(addr uint64) (SourceLoc, bool) {
	for _, e := range m.entries {
		if e.region.Contains(addr) {
			instr := int(addr-e.region.Lo) / hwsim.InstrBytes
			return SourceLoc{File: e.file, Line: e.startLine + instr/e.instrsPerLine}, true
		}
	}
	return SourceLoc{}, false
}

// Bounds returns the address range covering all mapped regions.
func (m *SourceMap) Bounds() (lo, hi uint64, ok bool) {
	if len(m.entries) == 0 {
		return 0, 0, false
	}
	lo = m.entries[0].region.Lo
	hi = m.entries[len(m.entries)-1].region.Hi
	return lo, hi, true
}

// LineHits is one source line's share of the profile.
type LineHits struct {
	Loc  SourceLoc
	Hits uint64
	Pct  float64
}

// Profiler is one vprof session: a metric, an overflow threshold, and
// a source map to correlate against.
type Profiler struct {
	th        *papi.Thread
	event     papi.Event
	threshold uint64
	smap      *SourceMap
	hist      *papi.Profile
	unmapped  uint64
}

// New prepares a profiler for the metric on the thread.
func New(th *papi.Thread, event papi.Event, threshold uint64, smap *SourceMap) (*Profiler, error) {
	lo, hi, ok := smap.Bounds()
	if !ok {
		return nil, fmt.Errorf("vprof: empty source map")
	}
	hist, err := papi.NewProfileCovering(lo, hi, hwsim.InstrBytes)
	if err != nil {
		return nil, err
	}
	return &Profiler{th: th, event: event, threshold: threshold, smap: smap, hist: hist}, nil
}

// Run profiles one execution of the program. Only user mode is counted:
// a source-line profile attributes the program's own events, and a
// cycles threshold below the interrupt's cost would otherwise be crossed
// again by every interrupt it raised.
func (p *Profiler) Run(prog workload.Program) error {
	es := p.th.NewEventSet()
	if err := es.Add(p.event); err != nil {
		return err
	}
	if err := es.SetDomain(papi.DOM_USER); err != nil {
		return err
	}
	if err := es.Profil(p.hist, p.event, p.threshold); err != nil {
		return err
	}
	if err := es.Start(); err != nil {
		return err
	}
	p.th.Run(prog)
	return es.Stop(nil)
}

// Lines returns per-line hit counts, by descending hits.
func (p *Profiler) Lines() []LineHits {
	byLoc := map[SourceLoc]uint64{}
	total := uint64(0)
	p.unmapped = p.hist.Outside
	for i, h := range p.hist.Buckets {
		if h == 0 {
			continue
		}
		addr, _ := p.hist.AddrRange(i)
		loc, ok := p.smap.Locate(addr)
		if !ok {
			p.unmapped += h
			continue
		}
		byLoc[loc] += h
		total += h
	}
	out := make([]LineHits, 0, len(byLoc))
	for loc, h := range byLoc {
		lh := LineHits{Loc: loc, Hits: h}
		if total > 0 {
			lh.Pct = float64(h) / float64(total)
		}
		out = append(out, lh)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		if out[i].Loc.File != out[j].Loc.File {
			return out[i].Loc.File < out[j].Loc.File
		}
		return out[i].Loc.Line < out[j].Loc.Line
	})
	return out
}

// Unmapped returns hits that fell outside the source map.
func (p *Profiler) Unmapped() uint64 {
	p.Lines()
	return p.unmapped
}

// Report renders the top-k line profile.
func (p *Profiler) Report(k int) string {
	lines := p.Lines()
	if k > 0 && len(lines) > k {
		lines = lines[:k]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "vprof: %s every %d events\n", papi.EventName(p.event), p.threshold)
	fmt.Fprintf(&b, "%-24s %10s %7s\n", "SOURCE LINE", "HITS", "PCT")
	for _, lh := range lines {
		fmt.Fprintf(&b, "%-24s %10d %6.1f%%\n", lh.Loc, lh.Hits, lh.Pct*100)
	}
	return b.String()
}
