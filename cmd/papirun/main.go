// papirun executes a workload on a simulated platform and reports
// hardware counter values plus timing — the utility §5 announces as
// under development ("a papirun utility that will allow users to
// execute a program and easily collect basic timing and hardware
// counter data").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/papi"
	"repro/workload"
)

func main() {
	platform := flag.String("platform", papi.PlatformLinuxX86, "platform key")
	events := flag.String("events", "PAPI_TOT_CYC,PAPI_FP_OPS", "comma-separated preset or native event names")
	prog := flag.String("workload", "matmul", "workload: "+strings.Join(workload.Names(), "|"))
	n := flag.Int("n", 64, "workload size parameter")
	reps := flag.Int("reps", 1, "run the workload this many times; with -serve each repetition publishes a cumulative snapshot, so papid sees a live trajectory it can derive metrics over")
	multiplex := flag.Bool("multiplex", false, "enable software multiplexing (low-level opt-in)")
	serve := flag.String("serve", "", "also publish the counter snapshot(s) to a running papid at this address")
	serveTimeout := flag.Duration("serve-timeout", 5*time.Second, "per-request deadline when publishing to papid")
	serveBinary := flag.Bool("serve-binary", false, "negotiate the compact binary wire codec when publishing (stays on JSON if papid does not confirm it)")
	serveStats := flag.Bool("serve-stats", false, "after publishing, print papid's tick counts and per-op latency quantiles")
	serveLabel := flag.String("serve-label", "papirun", "session label when publishing; label globs in wildcard SUBSCRIBE requests match it")
	flag.Parse()

	if *serveStats && *serve == "" {
		fmt.Fprintln(os.Stderr, "papirun: -serve-stats needs -serve")
		os.Exit(2)
	}
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "papirun: -reps must be >= 1")
		os.Exit(2)
	}
	if err := run(*platform, *events, *prog, *n, *reps, *multiplex, *serve, *serveLabel, *serveTimeout, *serveBinary, *serveStats); err != nil {
		fmt.Fprintln(os.Stderr, "papirun:", err)
		os.Exit(1)
	}
}

func run(platform, events, progName string, n, reps int, multiplex bool, serve, serveLabel string, serveTimeout time.Duration, serveBinary, serveStats bool) error {
	sys, err := papi.Init(papi.Options{Platform: platform})
	if err != nil {
		return err
	}
	th := sys.Main()
	prog, err := workload.ByName(progName, n)
	if err != nil {
		return err
	}

	es := th.NewEventSet()
	if multiplex {
		if err := es.SetMultiplex(0); err != nil {
			return err
		}
	}
	var evs []papi.Event
	var names []string
	for _, name := range strings.Split(events, ",") {
		name = strings.TrimSpace(name)
		ev, ok := papi.ResolveEvent(sys, name)
		if !ok {
			return fmt.Errorf("unknown event %q on %s", name, platform)
		}
		names = append(names, name)
		if err := es.Add(ev); err != nil {
			if papi.IsErr(err, papi.ECNFLCT) && !multiplex {
				return fmt.Errorf("adding %s: %w\n(more events than counters? re-run with -multiplex)", name, err)
			}
			return fmt.Errorf("adding %s: %w", name, err)
		}
		evs = append(evs, ev)
	}

	// Dial papid before the run so the session exists for the whole
	// trajectory: with -reps each repetition publishes its cumulative
	// counts, giving the server a stream of real deltas to derive over
	// instead of one opaque final total.
	var pub *publisher
	if serve != "" {
		var err error
		if pub, err = dialPublisher(serve, platform, serveLabel, serveTimeout, serveBinary); err != nil {
			return fmt.Errorf("publishing to papid at %s: %w", serve, err)
		}
		defer pub.close()
	}

	r0, v0 := th.RealUsec(), th.VirtUsec()
	if err := es.Start(); err != nil {
		return err
	}
	vals := make([]int64, len(evs))
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			prog.Reset() // programs are one-shot iterators; rewind between reps
		}
		th.Run(prog)
		if pub != nil && rep < reps-1 {
			if err := es.Read(vals); err != nil {
				return err
			}
			if err := pub.publish(names, vals); err != nil {
				return fmt.Errorf("publishing to papid at %s: %w", serve, err)
			}
		}
	}
	if err := es.Stop(vals); err != nil {
		return err
	}
	r1, v1 := th.RealUsec(), th.VirtUsec()

	fmt.Printf("papirun: %s on %s", prog.Name(), platform)
	if reps > 1 {
		fmt.Printf(" x%d", reps)
	}
	fmt.Println()
	fmt.Printf("%-16s %20s\n", "EVENT", "COUNT")
	for i, ev := range evs {
		fmt.Printf("%-16s %20d\n", sys.EventName(ev), vals[i])
	}
	fmt.Printf("%-16s %17d us\n", "real time", r1-r0)
	fmt.Printf("%-16s %17d us\n", "virtual time", v1-v0)
	if multiplex {
		fmt.Println("note: counts are multiplexed estimates; ensure the run is long enough to converge")
	}
	if pub != nil {
		if err := pub.publish(names, vals); err != nil {
			return fmt.Errorf("publishing to papid at %s: %w", serve, err)
		}
		fmt.Printf("%d snapshot(s) published to papid session %d at %s\n",
			reps, pub.session, serve)
		if serveStats {
			if err := pub.stats(); err != nil {
				return err
			}
		}
		if err := pub.bye(); err != nil {
			return err
		}
	}
	return nil
}

// publisher posts counter snapshots into a fresh publish-only papid
// session, where subscribers (dashboards, other tools) can read them —
// the one-shot papirun feeding the long-running service. The
// reconnecting client retries unreachable dials with backoff and
// bounds every request, so a dead or wedged papid yields the
// documented one-line non-zero exit instead of a hang.
type publisher struct {
	cl      *server.ReconnClient
	session uint64
}

func dialPublisher(addr, platform, label string, timeout time.Duration, binary bool) (*publisher, error) {
	cl, err := server.DialReconn(addr, server.RetryConfig{
		Attempts: 3, Timeout: timeout, PreferBinary: binary,
	})
	if err != nil {
		return nil, err
	}
	created, err := cl.Do(wire.Request{Op: wire.OpCreate, Platform: platform,
		Workload: "none", Label: label})
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &publisher{cl: cl, session: created.Session}, nil
}

func (p *publisher) publish(events []string, vals []int64) error {
	_, err := p.cl.Do(wire.Request{Op: wire.OpPublish, Session: p.session,
		Events: events, Values: vals})
	return err
}

func (p *publisher) stats() error {
	resp, err := p.cl.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		return err
	}
	fmt.Printf("papid ticks: %d run, %d skipped (sweep overran -tick)\n",
		resp.Hists["tick"].Count, resp.Stats["ticks_skipped"])
	fmt.Printf("papid latency quantiles:\n%s", telemetry.FormatSummaryTable(resp.Hists, nil))
	return nil
}

func (p *publisher) bye() error {
	_, err := p.cl.Do(wire.Request{Op: wire.OpBye})
	return err
}

func (p *publisher) close() error { return p.cl.Close() }
