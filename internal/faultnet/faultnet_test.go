package faultnet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/clock"
)

// readAll drains r into a buffer on a goroutine, returning a channel
// that yields the collected bytes once r hits EOF/closure.
func readAll(r net.Conn) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		var buf []byte
		tmp := make([]byte, 256)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				out <- buf
				return
			}
		}
	}()
	return out
}

func TestChunkedWritesReassemble(t *testing.T) {
	w, r := Pipe(Faults{ChunkSize: 3}, Faults{})
	got := readAll(r)
	msg := []byte(`{"op":"HELLO","version":2}` + "\n")
	n, err := w.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("chunked write: n=%d err=%v", n, err)
	}
	w.Close()
	if string(<-got) != string(msg) {
		t.Error("chunked frame did not reassemble")
	}
}

func TestCutSeversMidFrame(t *testing.T) {
	w, r := Pipe(Faults{CutAfter: 10}, Faults{})
	got := readAll(r)
	msg := []byte(`{"op":"HELLO","version":2}` + "\n")
	n, err := w.Write(msg)
	if n != 10 || !errors.Is(err, ErrCut) {
		t.Fatalf("cut write: n=%d err=%v, want 10 bytes then ErrCut", n, err)
	}
	if string(<-got) != string(msg[:10]) {
		t.Error("reader did not see exactly the pre-cut prefix")
	}
	// The conn is dead: further writes fail immediately.
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after cut succeeded")
	}
}

func TestStallHonorsWriteDeadline(t *testing.T) {
	w, r := Pipe(Faults{StallAfter: 1}, Faults{})
	defer r.Close()
	go io.Copy(io.Discard, r)
	if _, err := w.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	w.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := w.Write([]byte("b"))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stalled write returned %v, want a net.Error timeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("deadline trip took far longer than the deadline")
	}
}

// TestVirtualReadDeadline: a read deadline set on a fake clock trips when
// the fake passes it, for a read parked in the wrapped conn and for one
// faultnet stalls itself, and never on wall time. The fake reads the
// year 2000, so a deadline handed on to the wrapped conn as wall time
// would trip at once.
func TestVirtualReadDeadline(t *testing.T) {
	for _, stall := range []bool{false, true} {
		fk := clock.NewFake(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC))
		r, w := Pipe(Faults{Clock: fk, StallReads: stall}, Faults{})
		r.SetReadDeadline(fk.Now().Add(time.Hour))
		done := make(chan error, 1)
		go func() {
			_, err := r.Read(make([]byte, 1))
			done <- err
		}()
		select {
		case err := <-done:
			t.Fatalf("stall=%v: read returned %v with the fake clock standing still", stall, err)
		case <-time.After(200 * time.Millisecond):
		}
		fk.Advance(time.Hour)
		select {
		case err := <-done:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Errorf("stall=%v: read returned %v, want a net.Error timeout", stall, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stall=%v: the fake passed the deadline and the read stayed parked", stall)
		}
		r.Close()
		w.Close()
	}
}

func TestStallUnblockedByClose(t *testing.T) {
	w, r := Pipe(Faults{StallReads: true}, Faults{})
	defer r.Close()
	done := make(chan error, 1)
	go func() {
		_, err := w.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("stalled read returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the stalled read")
	}
}

func TestWriteLatencyDelays(t *testing.T) {
	w, r := Pipe(Faults{WriteLatency: 20 * time.Millisecond}, Faults{})
	got := readAll(r)
	start := time.Now()
	if _, err := w.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("latency write returned after %v, want >= 20ms", d)
	}
	w.Close()
	<-got
}

func TestListenerAppliesPlanPerConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := Wrap(ln, func(i int, nc net.Conn) Faults {
		if i == 0 {
			return Faults{CutAfter: 1}
		}
		return Faults{}
	})
	defer fln.Close()

	accepted := make(chan net.Conn, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := fln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	for i := 0; i < 2; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
	}
	first, second := <-accepted, <-accepted
	defer first.Close()
	defer second.Close()
	if _, err := first.Write([]byte("ab")); !errors.Is(err, ErrCut) {
		t.Errorf("conn 0 write err %v, want ErrCut after 1 byte", err)
	}
	if _, err := second.Write([]byte("ab")); err != nil {
		t.Errorf("conn 1 write err %v, want fault-free", err)
	}
}
