package wal

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// TestRowInSweepDropWindowSurvivesCrash: Sweep expires a session whole,
// and a row for that session is journaled right after it returns,
// before any persist pass has run. The row is acked and served. It must
// survive filler traffic that rotates the WAL many times over, and a
// crash: no WAL file holding it may be deleted while the store holds it
// outside a persisted block. Files older than it still go.
func TestRowInSweepDropWindowSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	const minute = int64(time.Minute / time.Microsecond)
	opts := noCompact(Options{Fsync: FsyncAlways, SegmentBytes: 16 << 10, Registry: telemetry.NewRegistry()})
	l, store, _ := openPair(t, dir, opts, tsdb.Config{MaxBytes: 1 << 30, MaxAge: time.Minute, BlockSamples: 64})
	now := 10 * minute
	late := rawSample{session: 1, event: "PAPI_TOT_CYC", ts: now, v: 42}
	filler := []string{"PAPI_TOT_CYC", "PAPI_TOT_INS"}
	appendTicks(t, l, late.session, []string{late.event}, 10, 0, 100_000)
	appendTicks(t, l, 2, filler, 2500, now-30_000_000, 10_000)

	store.Sweep(now)
	if err := l.AppendBatch(late.session, late.ts, []string{late.event}, []int64{late.v}); err != nil {
		t.Errorf("append in the drop window: %v", err)
	}
	if !servedRaw(store, late.session, late.session)[late] {
		t.Fatalf("the live store does not serve %+v, appended in the drop window", late)
	}
	appendTicks(t, l, 2, filler, 2500, now, 10_000)
	if stat(t, l, "wal_truncated_files") == 0 {
		t.Fatalf("the WAL was never truncated: %v", l.opts.Registry.Stats())
	}
	l.Abandon()

	opts.Clock = clock.NewFake(time.UnixMicro(now + 50_000_000))
	opts.Registry = nil
	l2, store2, rs := openPair(t, dir, opts, tsdb.Config{MaxAge: time.Minute, BlockSamples: 64})
	defer l2.Close()
	if !servedRaw(store2, late.session, late.session)[late] {
		t.Errorf("after a crash %+v, appended in the drop window, is not served (replay %+v)", late, rs)
	}
}

// TestSweepRacingAppendsKeepsAckedRows: two publishers append under
// fsync always, each to sessions it leaves idle long enough to expire
// whole before it comes back to them, while a third goroutine advances
// the clock and sweeps — so rows keep landing beside a Sweep that is
// dropping their series — and small WAL files rotate and truncate all
// along. After a crash every acked row still inside retention is served
// with its value. tools/ci.sh runs it many times under -race.
func TestSweepRacingAppendsKeepsAckedRows(t *testing.T) {
	const publishers, rows, burst, sessionsEach = 2, 600, 10, 8
	const minute = int64(time.Minute / time.Microsecond)
	dir := t.TempDir()
	opts := noCompact(Options{Fsync: FsyncAlways, SegmentBytes: 2 << 10, Registry: telemetry.NewRegistry()})
	cfg := tsdb.Config{MaxBytes: 1 << 30, MaxAge: time.Minute, BlockSamples: 16}
	l, store, _ := openPair(t, dir, opts, cfg)
	fk := clock.NewFake(time.UnixMicro(minute))
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}

	const firstSession = 100
	var appended atomic.Int64
	var running atomic.Int32
	running.Store(publishers)
	acked := make([][]rawSample, publishers)
	var wg sync.WaitGroup
	for p := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			for i := range rows {
				session := uint64(firstSession + p*sessionsEach + (i/burst)%sessionsEach)
				ts := fk.Now().UnixMicro()
				vals := []int64{int64(i)*10 + int64(p), int64(i) * 7}
				if err := l.AppendBatch(session, ts, events, vals); err != nil {
					t.Errorf("publisher %d row %d: %v", p, i, err)
					return
				}
				for j, ev := range events {
					acked[p] = append(acked[p], rawSample{session, ev, ts, vals[j]})
				}
				appended.Add(1)
			}
		}()
	}
	// Three virtual seconds per five rows: a session idle for the other
	// sessions' bursts is idle for well over a minute.
	sweeps := 0
	for swept := int64(0); running.Load() > 0; {
		n := appended.Load()
		if n-swept < 5 {
			runtime.Gosched()
			continue
		}
		swept = n
		fk.Advance(3 * time.Second)
		store.Sweep(fk.Now().UnixMicro())
		sweeps++
	}
	wg.Wait()
	if stat(t, l, "wal_truncated_files") == 0 || sweeps == 0 {
		t.Fatalf("%d sweeps, and the WAL never truncated: %v", sweeps, l.opts.Registry.Stats())
	}
	l.Abandon()

	now := fk.Now().UnixMicro()
	opts.Clock = clock.NewFake(fk.Now())
	opts.Registry = nil
	l2, store2, _ := openPair(t, dir, opts, cfg)
	defer l2.Close()
	served := servedRaw(store2, firstSession, firstSession+publishers*sessionsEach-1)
	checked := 0
	for _, rows := range acked {
		for _, a := range rows {
			if a.ts < now-minute {
				continue
			}
			checked++
			if !served[a] {
				t.Errorf("acked %+v inside retention is not served after the crash", a)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no acked row was inside retention at the end")
	}
}

var errCrashed = errors.New("disk crashed")

// crashPlan is an Options.wrap that crashes the disk at the nth write
// across every file the log writes, WAL files, segments and compaction
// outputs alike: that write tears — half of it reaches the file — and
// every later write fails.
type crashPlan struct {
	mu     sync.Mutex
	n      int // the write that tears, 1-based
	writes int
}

type writeFunc func(p []byte) (int, error)

func (f writeFunc) Write(p []byte) (int, error) { return f(p) }

func (c *crashPlan) wrap(_ string, w io.Writer) io.Writer {
	return writeFunc(func(p []byte) (int, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.writes++
		switch {
		case c.writes < c.n:
			return w.Write(p)
		case c.writes == c.n:
			k, _ := w.Write(p[:len(p)/2])
			return k, errCrashed
		}
		return 0, errCrashed
	})
}

// crashOp is one step of a crash schedule.
type crashOp struct {
	kind    byte   // 'a' append, 'n' start a new expiring session, 't' advance, 's' Sweep, 'c' Compact, 'y' Sync
	session uint64 // 'a'
	d       time.Duration
}

func (op crashOp) String() string {
	switch op.kind {
	case 'a':
		return fmt.Sprintf("append(%d)", op.session)
	case 'n':
		return "next-session"
	case 't':
		return fmt.Sprintf("advance(%v)", op.d)
	case 's':
		return "sweep"
	case 'c':
		return "compact"
	}
	return "sync"
}

// The series a crash schedule appends to: one dense session written on
// most steps, one sparse session, and a run of expiring sessions — each
// written for a while, then left to expire when the next one starts.
const (
	denseSession    = 1
	sparseSession   = 2
	expiringSession = 10
)

// crashSchedule draws seed's schedule.
func crashSchedule(seed int64) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]crashOp, 100+rng.Intn(200))
	for i := range ops {
		switch r := rng.Intn(100); {
		case r < 30:
			ops[i] = crashOp{kind: 'a', session: denseSession}
		case r < 35:
			ops[i] = crashOp{kind: 'a', session: sparseSession}
		case r < 55:
			ops[i] = crashOp{kind: 'a', session: expiringSession}
		case r < 58:
			ops[i] = crashOp{kind: 'n'}
		case r < 85:
			ops[i] = crashOp{kind: 't', d: time.Duration(rng.Int63n(int64(20 * time.Second)))}
		case r < 92:
			ops[i] = crashOp{kind: 's'}
		case r < 97:
			ops[i] = crashOp{kind: 'c'}
		default:
			ops[i] = crashOp{kind: 'y'}
		}
	}
	return ops
}

// TestCrashPlanKeepsAckedRows: a few hundred seeded schedules of appends
// to dense, sparse and expiring series, clock advances, sweeps,
// compactions and syncs, each with the disk crashing at a random write.
// After the crash and a restart, every acked row the store's retention
// still covers is served raw with its value, and nothing is served that
// was never appended. A failing seed prints its schedule; rerun it alone
// with -run 'TestCrashPlanKeepsAckedRows/seed=N$'.
func TestCrashPlanKeepsAckedRows(t *testing.T) {
	runCrashPlans(t, tsdb.Config{MaxBytes: roomyBytes, MaxAge: time.Minute, BlockSamples: 8})
}

// roomyBytes is a budget no crash schedule fills: the store then serves
// every row appended within retention.
const roomyBytes = 1 << 30

// TestCrashPlanTightBudget: TestCrashPlanKeepsAckedRows' schedules
// under a byte budget their stores reach, live or while a restart
// replays, so compaction folds what the store let go while the disk
// crashes around it. Within retention a restart serves exactly what the
// live store served when the disk never crashed, and every acked row
// the live store served when it did. Replay used to apply the budget to
// each re-appended WAL row, before its retention sweep, so rows about
// to expire pushed out blocks the live store kept.
func TestCrashPlanTightBudget(t *testing.T) {
	runCrashPlans(t, tsdb.Config{MaxBytes: 5 << 10, MaxAge: time.Minute, BlockSamples: 8})
}

// runCrashPlans runs the seeded crash schedules against a store of cfg.
func runCrashPlans(t *testing.T, cfg tsdb.Config) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ops := crashSchedule(seed)
			plan := &crashPlan{n: 1 + rand.New(rand.NewSource(-seed)).Intn(len(ops))}
			if err := runCrashSchedule(t, ops, plan, cfg); err != nil {
				var sched strings.Builder
				for _, op := range ops {
					fmt.Fprintf(&sched, " %v", op)
				}
				t.Fatalf("crash at write %d of %d: %v\nschedule:%s", plan.n, plan.writes, err, sched.String())
			}
		})
	}
}

// runCrashSchedule plays ops against a fresh log whose disk crashes as
// plan says, crashes the process, restarts, and checks what is served
// within retention against what was acked and what the live store
// served.
func runCrashSchedule(t *testing.T, ops []crashOp, plan *crashPlan, cfg tsdb.Config) error {
	dir := t.TempDir()
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 1 << 10})
	opts.wrap = plan.wrap
	l, store, _ := openPair(t, dir, opts, cfg)
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	now := time.Hour.Microseconds()
	expiring := uint64(expiringSession)
	var acked []rawSample
	appended := map[rawSample]bool{}
	for i, op := range ops {
		switch op.kind {
		case 'a':
			session := op.session
			if session == expiringSession {
				session = expiring
			}
			vals := []int64{int64(i) * 10, int64(i)*10 + 1}
			err := l.AppendBatch(session, now, events, vals)
			for j, ev := range events {
				s := rawSample{session, ev, now, vals[j]}
				appended[s] = true
				if err == nil {
					acked = append(acked, s)
				}
			}
		case 'n':
			expiring++
		case 't':
			now += op.d.Microseconds()
		case 's':
			store.Sweep(now)
		case 'c':
			l.Compact(now) // fails once the disk has crashed; that is the point
		case 'y':
			l.Sync()
		}
	}
	cutoff := now - cfg.MaxAge.Microseconds()
	live := servedRaw(store, denseSession, expiring)
	// The 1 s-step view from the first whole second inside retention: no
	// rollup divides the step, so the store folds it from raw blocks.
	const second = int64(time.Second / time.Microsecond)
	stepFrom := (cutoff + second - 1) / second * second
	liveSteps := stepViews(t, store, denseSession, expiring, stepFrom)
	crashed := plan.writes >= plan.n
	l.Abandon()

	opts.wrap = nil
	opts.Clock = clock.NewFake(time.UnixMicro(now))
	l2, store2, _ := openPair(t, dir, opts, cfg)
	defer l2.Abandon()
	served := servedRaw(store2, denseSession, expiring)
	for s := range served {
		if !appended[s] {
			return fmt.Errorf("serves %+v, which was never appended", s)
		}
	}
	for _, s := range acked {
		// Under a budget that evicts, an acked row the live store let
		// go is rightly not served.
		if s.ts >= cutoff && (live[s] || cfg.MaxBytes == roomyBytes) && !served[s] {
			return fmt.Errorf("acked %+v inside retention is not served (served live: %v)", s, live[s])
		}
	}
	for s := range served {
		if s.ts >= cutoff && !crashed && !live[s] {
			return fmt.Errorf("serves %+v, which the live store had let go, though the disk never crashed", s)
		}
	}
	if got := stepViews(t, store2, denseSession, expiring, stepFrom); !crashed && got != liveSteps {
		return fmt.Errorf("the 1 s-step view from %d differs, though the disk never crashed:\nlive:    %s\nrestart: %s",
			stepFrom, liveSteps, got)
	}
	return nil
}

// stepViews is the 1 s-step view from `from` on of each session in
// [first, last].
func stepViews(t *testing.T, store *tsdb.Store, first, last uint64, from int64) string {
	var sb strings.Builder
	for s := first; s <= last; s++ {
		sb.WriteString(queryViews(t, store, s, from, 1<<62, 1_000_000))
	}
	return sb.String()
}
