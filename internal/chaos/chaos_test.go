package chaos

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections on ln and echoes bytes back until EOF.
func echoServer(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
}

func newLoopListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	ln := newLoopListener(t)
	echoServer(t, ln)
	in := New(Config{Seed: 1})
	conn, err := in.Dial(context.Background(), 0, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("hello, network")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("echoed %q, want %q", buf, msg)
	}
	st := in.Stats()
	if st.DialsFailed+st.Cuts+st.Resets+st.Crashes != 0 {
		t.Fatalf("zero config delivered faults: %+v", st)
	}
}

func TestDialFailuresAreInjectedAndCounted(t *testing.T) {
	ln := newLoopListener(t)
	echoServer(t, ln)
	in := New(Config{Seed: 7, DialFail: 1})
	_, err := in.Dial(context.Background(), 3, ln.Addr().String())
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("dial error %v, want ErrInjected", err)
	}
	if st := in.Stats(); st.DialsFailed != 1 || st.Dials != 1 {
		t.Fatalf("stats %+v, want 1 failed dial of 1", st)
	}
}

func TestCutSeversMidStream(t *testing.T) {
	ln := newLoopListener(t)
	echoServer(t, ln)
	in := New(Config{Seed: 42, Cut: 1, CutBytes: 8})
	conn, err := in.Dial(context.Background(), 0, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Move more than CutBytes through the connection; the cut must fire.
	var sawErr error
	for i := 0; i < 8 && sawErr == nil; i++ {
		_, sawErr = conn.Write(make([]byte, 4))
	}
	if sawErr == nil {
		t.Fatal("connection survived writes beyond its cut budget")
	}
	if st := in.Stats(); st.Cuts != 1 {
		t.Fatalf("stats %+v, want 1 cut", st)
	}
	// Subsequent operations fail fast.
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut write error %v, want ErrInjected", err)
	}
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut read error %v, want ErrInjected", err)
	}
}

func TestCrashScheduleSeversEveryNodeConn(t *testing.T) {
	ln := newLoopListener(t)
	echoServer(t, ln)
	in := New(Config{Seed: 3, Crash: map[int]int64{5: 10}})
	// Two connections for node 5 share the 10-byte budget.
	c1, err := in.Dial(context.Background(), 5, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := in.Dial(context.Background(), 5, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c1.Write(make([]byte, 8)); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	if _, err := c2.Write(make([]byte, 8)); err == nil {
		t.Fatal("second conn exceeded the node budget without error")
	}
	if st := in.Stats(); st.Crashes == 0 {
		t.Fatalf("stats %+v, want ≥ 1 crash", st)
	}
	// A non-scheduled node is unaffected.
	c3, err := in.Dial(context.Background(), 6, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Write(make([]byte, 64)); err != nil {
		t.Fatalf("unscheduled node write: %v", err)
	}
}

func TestWrapListenerInjectsOnAccept(t *testing.T) {
	raw := newLoopListener(t)
	in := New(Config{Seed: 9, Cut: 1, CutBytes: 4})
	ln := in.WrapListener(2, raw)
	got := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		defer conn.Close()
		_, err = io.Copy(io.Discard, conn)
		got <- err
	}()
	conn, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(make([]byte, 64))
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("accepted conn read 64 bytes through a 4-byte cut")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("accept-side read never unblocked")
	}
	if st := in.Stats(); st.Conns != 1 || st.Cuts != 1 {
		t.Fatalf("stats %+v, want 1 conn with 1 cut", st)
	}
}

func TestDeterministicDrawSequence(t *testing.T) {
	// Equal seeds must draw equal fates when connections are created in
	// the same order.
	fates := func(seed int64) []fate {
		in := New(Config{Seed: seed, Cut: 0.5, Reset: 0.5, CutBytes: 100})
		out := make([]fate, 16)
		for i := range out {
			out[i] = in.draw(i)
		}
		return out
	}
	a, b := fates(11), fates(11)
	for i := range a {
		if a[i].cutAfter != b[i].cutAfter || a[i].reset != b[i].reset || a[i].delaySeed != b[i].delaySeed {
			t.Fatalf("draw %d differs across equal seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := fates(12)
	same := true
	for i := range a {
		if a[i].cutAfter != c[i].cutAfter || a[i].delaySeed != c[i].delaySeed {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew identical fate sequences")
	}
}

func TestConcurrentDrawsAreRaceFree(t *testing.T) {
	in := New(Config{Seed: 5, Cut: 0.3, Delay: 0.3, Crash: map[int]int64{1: 100}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in.draw(g % 3)
			}
		}(g)
	}
	wg.Wait()
}

func TestKillNodeSeversAndBlocksUntilHeal(t *testing.T) {
	ln := newLoopListener(t)
	echoServer(t, ln)
	in := New(Config{Seed: 7})

	conn, err := in.Dial(context.Background(), 3, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}

	if n := in.KillNode(3); n != 1 {
		t.Fatalf("KillNode severed %d conns, want 1", n)
	}
	if !in.NodeKilled(3) {
		t.Fatal("NodeKilled(3) = false after KillNode")
	}
	if _, err := conn.Write([]byte("dead")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on killed conn: %v, want ErrInjected", err)
	}
	if _, err := conn.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read on killed conn: %v, want ErrInjected", err)
	}
	if _, err := in.Dial(context.Background(), 3, ln.Addr().String()); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial from killed node: %v, want ErrInjected", err)
	}
	if n := in.KillNode(3); n != 0 {
		t.Fatalf("second KillNode severed %d conns, want 0", n)
	}

	in.HealNode(3)
	if in.NodeKilled(3) {
		t.Fatal("NodeKilled(3) = true after HealNode")
	}
	conn2, err := in.Dial(context.Background(), 3, ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn2, buf); err != nil {
		t.Fatal(err)
	}

	st := in.Stats()
	if st.Kills < 2 { // one severed conn + one refused dial
		t.Fatalf("Stats.Kills = %d, want >= 2", st.Kills)
	}
}

func TestKillNodeDeadensAcceptedConns(t *testing.T) {
	in := New(Config{Seed: 8})
	raw := newLoopListener(t)
	ln := in.WrapListener(9, raw)
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()

	in.KillNode(9)
	peer, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	var conn net.Conn
	select {
	case conn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept did not complete")
	}
	defer conn.Close()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read on conn accepted by killed node: %v, want ErrInjected", err)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on conn accepted by killed node: %v, want ErrInjected", err)
	}
}

// TestConnInjectsOnPipe drives Conn on in-process pipes, the streams
// internal/ha replicates over: a killed node's Conn is refused and its
// pipe closed, a Crash budget severs a frame after its header, a reset
// is a plain close counted as a reset, and every call counts as a dial.
func TestConnInjectsOnPipe(t *testing.T) {
	in := New(Config{Seed: 4, Crash: map[int]int64{5: 3}})

	in.KillNode(4)
	near, far := net.Pipe()
	if _, err := in.Conn(4, near); !errors.Is(err, ErrInjected) {
		t.Fatalf("Conn from killed node: %v, want ErrInjected", err)
	}
	if _, err := far.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read across a refused Conn: %v, want the pipe closed (io.EOF)", err)
	}

	// Node 5 crashes 3 bytes in: the 5-byte header crosses, the body
	// never does, so the reader is left inside a frame.
	near, far = net.Pipe()
	c, err := in.Conn(5, near)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make(chan error, 1)
	go func() {
		if _, err := io.ReadFull(far, make([]byte, 5)); err != nil {
			got <- err
			return
		}
		_, err := io.ReadFull(far, make([]byte, 8))
		got <- err
	}()
	if _, err := c.Write(make([]byte, 5)); !errors.Is(err, ErrInjected) {
		t.Fatalf("header write past the crash budget: %v, want ErrInjected", err)
	}
	if _, err := c.Write(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("body write after the crash: %v, want ErrInjected", err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("body read after the crash: %v, want io.EOF", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader never saw the crash")
	}

	reset := New(Config{Seed: 4, Reset: 1, CutBytes: 1})
	near, far = net.Pipe()
	defer far.Close()
	if c, err = reset.Conn(6, near); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, far)
	if _, err := c.Write(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("write past a 1-byte reset budget: %v, want ErrInjected", err)
	}

	if st := in.Stats(); st.Dials != 2 || st.Conns != 1 || st.Kills != 1 || st.Crashes == 0 {
		t.Fatalf("stats %+v, want 2 dials, 1 conn, 1 kill and a crash", st)
	}
	if st := reset.Stats(); st.Dials != 1 || st.Resets != 1 {
		t.Fatalf("reset stats %+v, want 1 dial and 1 reset", st)
	}
}
