// perfometer runs the real-time monitoring pipeline of §2/Figure 2: a
// backend executing a phased application streams FLOP-rate samples over
// TCP to a frontend, which renders the trace and optionally saves it
// for off-line analysis.
//
// With -papid it instead runs in history mode: query a running papid's
// embedded time-series store for a session's past counter data and
// render the downsampled range — the view a tool gets when it attaches
// after the interesting phase already happened:
//
//	perfometer -papid 127.0.0.1:6117 -session 1 -last 1m -step 10s
//
// With -papid -derive the history query answers in finished derived
// metrics (IPC, miss ratios, MB/s) instead of raw counter buckets, and
// with -follow it subscribes live with those groups and streams the
// server's DERIVED frames beside the snapshots as they are evaluated:
//
//	perfometer -papid 127.0.0.1:6117 -session 1 -derive ipc,l2miss
//	perfometer -papid 127.0.0.1:6117 -session 1 -derive ipc -follow 5s
//
// With -papid -stats it instead asks the server for its lifetime
// counters and per-op latency quantiles (papid's self-telemetry):
//
//	perfometer -papid 127.0.0.1:6117 -stats
//
// With -tracez it fetches the pipeline flight recorder's retained
// traces from a papid admin (-http) endpoint and prints them slowest
// first — each row's ID plugs into /debug/trace?id= for the full span
// tree, or &format=chrome for a Perfetto-loadable export:
//
//	perfometer -tracez 127.0.0.1:6118
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/papi"
	"repro/tools/dynaprof"
	"repro/tools/perfometer"
	"repro/workload"
)

func main() {
	platform := flag.String("platform", papi.PlatformAIXPower3, "platform key")
	metric := flag.String("metric", "PAPI_FP_OPS", "preset event to trace")
	traceFile := flag.String("trace", "", "save the trace to this file")
	width := flag.Int("width", 72, "sparkline width")
	papid := flag.String("papid", "", "history mode: query this papid instead of tracing live")
	session := flag.Uint64("session", 0, "history mode: papid session to query")
	event := flag.String("event", "", "history mode: restrict the query to one event")
	last := flag.Duration("last", time.Minute, "history mode: how far back to query")
	step := flag.Duration("step", 10*time.Second, "history mode: output window width")
	timeout := flag.Duration("timeout", 5*time.Second, "history mode: per-request deadline against papid")
	binary := flag.Bool("binary", false, "history mode: negotiate the compact binary wire codec (stays on JSON if papid does not confirm it)")
	stats := flag.Bool("stats", false, "with -papid: print the server's counters and per-op latency quantiles instead of querying history")
	tracez := flag.String("tracez", "", "print a papid flight-recorder view fetched from this admin (-http) address's /tracez endpoint")
	derive := flag.String("derive", "", "with -papid: comma-separated derived-metric groups — query history in finished metrics, or stream them live with -follow")
	follow := flag.Duration("follow", 0, "with -papid: subscribe and stream live snapshot frames, and with -derive DERIVED frames, for this long")
	sessions := flag.String("sessions", "", "follow mode: comma-separated session IDs for a wildcard SUBSCRIBE (default: the one -session)")
	labels := flag.String("labels", "", "follow mode: comma-separated session-label globs for a wildcard SUBSCRIBE")
	filterEvents := flag.String("filter-events", "", "follow mode: comma-separated event names to limit frames to")
	delta := flag.Bool("delta", false, "follow mode: delta subscription — keyframes plus changed-counter DELTA frames, reassembled locally")
	flag.Parse()

	groups := splitList(*derive)
	var err error
	switch {
	case *tracez != "":
		err = runTracez(*tracez, *timeout)
	case *papid != "" && *stats:
		err = runStats(*papid, *timeout, *binary)
	case *papid != "" && *follow > 0:
		err = runFollow(*papid, followOpts{
			session: *session, sessions: *sessions, labels: splitList(*labels),
			events: splitList(*filterEvents), delta: *delta, groups: groups,
			dur: *follow, width: *width, timeout: *timeout, binary: *binary,
		})
	case *papid != "":
		err = runHistory(*papid, *session, *event, groups, *last, *step, *width, *timeout, *binary)
	case len(groups) > 0 || *follow > 0:
		err = fmt.Errorf("-derive and -follow need -papid to name the server")
	default:
		err = run(*platform, *metric, *traceFile, *width)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfometer:", err)
		os.Exit(1)
	}
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// runHistory is the -papid mode: handshake, QUERY, render. The
// reconnecting client retries the dial with backoff, bounds every
// request, and transparently redials (QUERY is idempotent) if the
// connection drops mid-conversation.
func runHistory(addr string, session uint64, event string, groups []string, last, step time.Duration, width int, timeout time.Duration, binary bool) error {
	cl, err := server.DialReconn(addr, server.RetryConfig{Timeout: timeout, PreferBinary: binary})
	if err != nil {
		return fmt.Errorf("dialing papid at %s: %w", addr, err)
	}
	defer cl.Close()
	to := time.Now().UnixMicro()
	req := wire.Request{Op: wire.OpQuery, Session: session, Derive: groups,
		From: to - last.Microseconds(), To: to, Step: step.Microseconds()}
	if event != "" {
		req.Events = []string{event}
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	if len(groups) > 0 {
		if len(resp.Derived) == 0 {
			return fmt.Errorf("session %d has no derivable history in the last %s at %s steps (deltas need two buckets; try a smaller -step or -step 0 for raw)",
				session, last, step)
		}
		fmt.Printf("perfometer derived history: session %d, groups %s, last %s at %s steps (papid %s)\n",
			session, strings.Join(groups, ","), last, step, addr)
		perfometer.RenderDerived(os.Stdout, resp.Derived, width)
		_, err = cl.Do(wire.Request{Op: wire.OpBye})
		return err
	}
	if len(resp.Series) == 0 {
		return fmt.Errorf("session %d has no history in the last %s", session, last)
	}
	fmt.Printf("perfometer history: session %d, last %s at %s steps (papid %s)\n",
		session, last, step, addr)
	perfometer.RenderHistory(os.Stdout, resp.Series, width)
	_, err = cl.Do(wire.Request{Op: wire.OpBye})
	return err
}

// followOpts carries the -follow mode's flag values.
type followOpts struct {
	session  uint64
	sessions string // raw -sessions value; parsed into IDs
	labels   []string
	events   []string
	delta    bool
	groups   []string // -derive: stream these groups' DERIVED frames too
	dur      time.Duration
	width    int
	timeout  time.Duration
	binary   bool
}

// runFollow is -papid -follow: subscribe live — optionally to several
// sessions by ID or label glob, narrowed to chosen events, in delta
// mode, or with derive groups — and stream the frames for the given
// duration. DELTA frames are reassembled into full snapshots locally;
// DERIVED frames are printed as they come and summarized per metric as
// a sparkline at the end. A frame for a session outside the subscribed
// set is a server bug and fails loudly. The subscription rides a plain
// (non-reconnecting) client on purpose: a redial would silently restart
// the stream's delta baseline, and for a bounded follow an honest
// "connection lost" beats a seamless-looking gap.
func runFollow(addr string, o followOpts) error {
	ids, err := parseIDs(o.sessions)
	if err != nil {
		return err
	}
	wildcard := len(ids) > 0 || len(o.labels) > 0
	if !wildcard && o.session == 0 {
		return fmt.Errorf("-follow needs -session, -sessions or -labels to pick what to stream")
	}
	cl, err := server.DialRetry(addr, server.RetryConfig{Timeout: o.timeout, PreferBinary: o.binary})
	if err != nil {
		return fmt.Errorf("dialing papid at %s: %w", addr, err)
	}
	defer cl.Close()
	if _, err := cl.Hello(); err != nil {
		return err
	}
	req := wire.Request{Op: wire.OpSubscribe, Events: o.events, Delta: o.delta, Derive: o.groups}
	if wildcard {
		req.Sessions, req.Labels = ids, o.labels
	} else {
		req.Session = o.session
	}
	sub, err := cl.Do(req)
	if err != nil {
		return err
	}
	subscribed := sub.Sessions
	if !wildcard {
		subscribed = []uint64{o.session}
	}
	fmt.Printf("perfometer follow: sessions %v for %s (papid %s, delta=%v)\n",
		subscribed, o.dur, addr, o.delta)

	// The timer ends the stream by closing the connection, which
	// unblocks the read loop; `done` distinguishes that planned close
	// from a real transport failure.
	done := make(chan struct{})
	timer := time.AfterFunc(o.dur, func() { close(done); cl.Close() })
	defer timer.Stop()
	var tracker wire.DeltaTracker
	var keyframes, deltas, skipped, derived int
	history := make(map[string][]float64) // DERIVED values per metric
	units := make(map[string]string)
	var metrics []string // in first-seen order
	for {
		resp, err := cl.Next()
		if err != nil {
			select {
			case <-done:
			default:
				return err
			}
			break
		}
		if resp.Op != wire.OpSnapshot && resp.Op != wire.OpDelta && resp.Op != wire.OpDerived {
			continue
		}
		if !slices.Contains(subscribed, resp.Session) {
			return fmt.Errorf("papid sent a frame for session %d, outside the subscribed set %v",
				resp.Session, subscribed)
		}
		if resp.Op == wire.OpDerived {
			derived++
			fmt.Println(perfometer.FormatDerivedFrame(resp))
			for i, m := range resp.Metrics[:min(len(resp.Metrics), len(resp.DValues))] {
				if _, ok := history[m]; !ok {
					metrics = append(metrics, m)
					if i < len(resp.Units) {
						units[m] = resp.Units[i]
					}
				}
				history[m] = append(history[m], resp.DValues[i])
			}
			continue
		}
		if resp.Op == wire.OpDelta {
			deltas++
		} else {
			keyframes++
		}
		snap, err := tracker.Apply(resp)
		if err != nil {
			// A missed keyframe (e.g. frames raced the subscribe reply)
			// self-heals at the next keyframe; count it and keep reading.
			skipped++
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "s%d seq=%d", snap.Session, snap.Seq)
		for i, ev := range snap.Events {
			if i < len(snap.Values) {
				fmt.Fprintf(&b, " %s=%d", ev, snap.Values[i])
			}
		}
		fmt.Println(b.String())
	}
	fmt.Printf("follow summary: %d frames (keyframes=%d deltas=%d skipped=%d) in %s\n",
		keyframes+deltas, keyframes, deltas, skipped, o.dur)
	if len(o.groups) == 0 {
		return nil
	}
	if derived == 0 {
		return fmt.Errorf("no DERIVED frames within %s: is session %d ticking or publishing?", o.dur, o.session)
	}
	fmt.Printf("%d derived frames in %s\n", derived, o.dur)
	for _, m := range metrics {
		fmt.Printf("  %-20s [%s] %s\n", m, units[m], perfometer.SparklineValues(history[m], o.width))
	}
	return nil
}

// parseIDs parses a comma-separated list of session IDs.
func parseIDs(s string) ([]uint64, error) {
	var ids []uint64
	for _, f := range splitList(s) {
		id, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -sessions entry %q: %v", f, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// runStats is -papid -stats: one STATS round-trip — counters, latency
// histograms, recent slow ops — rendered.
func runStats(addr string, timeout time.Duration, binary bool) error {
	cl, err := server.DialReconn(addr, server.RetryConfig{Timeout: timeout, PreferBinary: binary})
	if err != nil {
		return fmt.Errorf("dialing papid at %s: %w", addr, err)
	}
	defer cl.Close()
	resp, err := cl.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		return err
	}
	fmt.Printf("perfometer stats: papid %s (protocol %d)\n", addr, cl.Hello().Protocol)
	perfometer.RenderStats(os.Stdout, resp.Stats, resp.Hists)
	perfometer.RenderSlow(os.Stdout, resp.Slow)
	_, err = cl.Do(wire.Request{Op: wire.OpBye})
	return err
}

// runTracez is -tracez: fetch the flight recorder's retained-trace
// list from papid's admin endpoint (the same document /tracez serves
// in HTML) and render it as a table. Unlike the other modes this
// talks HTTP to -http, not the wire protocol to -addr.
func runTracez(addr string, timeout time.Duration) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimRight(base, "/") + "/tracez?format=json"
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %s (is this the admin -http address, with tracing on?)", url, resp.Status)
	}
	var doc perfometer.TracezDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	fmt.Printf("perfometer tracez: papid admin %s\n", addr)
	perfometer.RenderTracez(os.Stdout, doc)
	return nil
}

func run(platform, metric, traceFile string, width int) error {
	sys, err := papi.Init(papi.Options{Platform: platform})
	if err != nil {
		return err
	}
	th := sys.Main()
	ev, ok := papi.PresetByName(metric)
	if !ok {
		return fmt.Errorf("unknown metric %q", metric)
	}

	// Frontend listens; backend dials — the paper's two-process shape,
	// here wired through the loopback in one process.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()

	front := &perfometer.Frontend{}
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- front.Consume(conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}

	backend := perfometer.NewBackend(th, ev, 200_000)
	exe, err := phasedExecutable()
	if err != nil {
		return err
	}
	prof := dynaprof.Attach(exe)
	if err := prof.Instrument("*", &perfometer.SectionProbe{Backend: backend}); err != nil {
		return err
	}
	if err := backend.RunInstrumented(conn, func() error { return prof.Run(th) }); err != nil {
		return err
	}
	conn.Close()
	if err := <-done; err != nil {
		return err
	}

	fmt.Printf("perfometer: %s on %s (%d samples)\n", metric, platform, len(front.Points))
	fmt.Printf("peak rate: %.2f M%s/s\n", front.MaxRate()/1e6, metric)
	fmt.Println(front.Sparkline(width))
	fmt.Println("sections:", front.Sections())
	for sec, rate := range front.SectionMeanRate() {
		fmt.Printf("  %-12s mean %.2f M/s\n", sec, rate/1e6)
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := front.SaveTrace(f); err != nil {
			return err
		}
		fmt.Println("trace saved to", traceFile)
	}
	return nil
}

func phasedExecutable() (*dynaprof.Executable, error) {
	return dynaprof.NewExecutable("phased", "main",
		&dynaprof.Func{Name: "main", Body: []dynaprof.Stmt{
			dynaprof.CallStmt{Callee: "compute_a"},
			dynaprof.CallStmt{Callee: "gather"},
			dynaprof.CallStmt{Callee: "compute_b"},
		}},
		&dynaprof.Func{Name: "compute_a", Body: []dynaprof.Stmt{
			dynaprof.RunStmt{Prog: workload.MatMul(workload.MatMulConfig{N: 64, UseFMA: true})},
		}},
		&dynaprof.Func{Name: "gather", Body: []dynaprof.Stmt{
			dynaprof.RunStmt{Prog: workload.PointerChase(workload.ChaseConfig{Nodes: 1 << 14, Steps: 500_000})},
		}},
		&dynaprof.Func{Name: "compute_b", Body: []dynaprof.Stmt{
			dynaprof.RunStmt{Prog: workload.MatMul(workload.MatMulConfig{N: 64, UseFMA: true})},
		}},
	)
}
