// Package chaos injects deterministic, seeded faults into network
// transports. It wraps net.Conn, net.Listener and dial functions so that
// the TCP mesh of internal/cluster and the in-process replication pipes
// of internal/ha can be exercised — in tests, soaks and soarctl — against the
// failure modes the paper's asynchronous message-passing model (Sec. 4.2)
// must survive in a long-running deployment:
//
//   - dial failures: a dial attempt errors before any byte is exchanged,
//     the classic transient fault a retry policy must absorb;
//   - connection resets: a connection is closed with SO_LINGER(0) so the
//     peer observes a hard RST instead of a clean FIN;
//   - mid-frame cuts: a connection is severed after a byte budget drawn
//     to land *inside* a frame, so receivers see truncated messages;
//   - delays: individual reads/writes stall, exercising per-frame I/O
//     deadlines independent of any context deadline;
//   - per-node crash schedules: all connections belonging to one node
//     share a byte budget after which every one of them is severed,
//     simulating the node's process dying mid-protocol;
//   - targeted kills: KillNode severs a node's live connections with a
//     hard RST and fails its future dials, accepts and Conn calls until
//     HealNode, the primitive the failover soak (internal/ha) uses to
//     take a shard primary down at a chosen moment, not a drawn one.
//
// All randomness flows from one seeded source, so a given seed yields a
// reproducible sequence of fault draws (the interleaving of concurrent
// connections still depends on goroutine scheduling; determinism here
// means the fates drawn, not the wall-clock schedule).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error returned by operations on a connection the
// injector severed (cut, reset or node crash) and by injected dial
// failures. Transports should treat it — like any I/O error from a
// faulty peer — as transient and retriable.
var ErrInjected = errors.New("chaos: injected fault")

// Config tunes an Injector. The zero value injects nothing; every
// probability is in [0, 1] and evaluated independently per connection
// (Cut, Reset) or per dial attempt (DialFail). Delay is evaluated per
// read/write operation.
type Config struct {
	// Seed feeds the injector's random source; equal seeds draw equal
	// fault sequences.
	Seed int64
	// DialFail is the probability a dial attempt fails outright.
	DialFail float64
	// Cut is the probability a new connection is severed after a random
	// byte budget (uniform in [1, CutBytes]), which lands mid-frame for
	// any multi-byte frame.
	Cut float64
	// CutBytes bounds the cut byte budget (default 256).
	CutBytes int
	// Reset is the probability a new connection is closed with
	// SO_LINGER(0) — a hard TCP RST — after a random byte budget; on a
	// non-TCP conn (a pipe) it is a plain close, still counted in Resets.
	Reset float64
	// Delay is the probability one read or write stalls for a random
	// duration in (0, MaxDelay].
	Delay float64
	// MaxDelay bounds injected stalls (default 2ms).
	MaxDelay time.Duration
	// Crash schedules node deaths: Crash[v] = b severs every connection
	// wrapped for node v once it has moved b bytes in total; b = 0 kills
	// the node's very first operation. Nodes absent never crash.
	Crash map[int]int64
}

// Stats counts the faults an injector has actually delivered. All
// counters are cumulative and safe to read concurrently via
// Injector.Stats (see its doc comment for the exact guarantee).
type Stats struct {
	// Dials counts dial attempts seen; DialsFailed those injected to fail.
	Dials, DialsFailed int64
	// Conns counts connections wrapped.
	Conns int64
	// Cuts, Resets count connections severed mid-stream, by kind.
	Cuts, Resets int64
	// Delays counts stalled read/write operations.
	Delays int64
	// Crashes counts connections severed by a node crash schedule.
	Crashes int64
	// Kills counts connections severed or refused by KillNode.
	Kills int64
}

// Injector draws fault fates from one seeded source and applies them to
// the connections it wraps. Safe for concurrent use.
type Injector struct {
	cfg Config

	// mu guards rng, the single source every fate is drawn from.
	//
	//soar:lockorder mu
	mu  sync.Mutex //soar:critical guards rng
	rng *rand.Rand

	crash sync.Map // node int → *atomic.Int64 remaining byte budget

	// killMu guards the administrative kill state: which nodes are down
	// and which wrapped connections are live per node. Never nested with
	// mu (fate draws and kill bookkeeping are separate steps).
	//
	//soar:lockorder killMu
	killMu sync.Mutex //soar:critical guards killed, live
	killed map[int]bool
	live   map[int]map[*faultConn]struct{}

	dials, dialsFailed, conns, cuts, resets, delays, crashes, kills atomic.Int64
}

// New creates an injector for the given fault plan.
func New(cfg Config) *Injector {
	if cfg.CutBytes <= 0 {
		cfg.CutBytes = 256
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	in := &Injector{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		killed: make(map[int]bool),
		live:   make(map[int]map[*faultConn]struct{}),
	}
	for v, b := range cfg.Crash {
		if b < 0 {
			b = 0
		}
		left := new(atomic.Int64)
		left.Store(b)
		in.crash.Store(v, left)
	}
	return in
}

// Stats returns a snapshot of the faults delivered so far.
//
// Concurrency: Stats is safe to call from any goroutine at any time,
// including while connections are being wrapped, severed and stalled —
// every counter is an atomic the fault paths update individually. The
// snapshot is not a consistent cut across counters (a reader may
// observe a connection counted in Conns before its cut lands in Cuts),
// but each field is a valid point-in-time read and all are monotone.
// TestStatsConcurrentWithFaults drives this under the race detector.
func (in *Injector) Stats() Stats {
	return Stats{
		Dials:       in.dials.Load(),
		DialsFailed: in.dialsFailed.Load(),
		Conns:       in.conns.Load(),
		Cuts:        in.cuts.Load(),
		Resets:      in.resets.Load(),
		Delays:      in.delays.Load(),
		Crashes:     in.crashes.Load(),
		Kills:       in.kills.Load(),
	}
}

// KillNode takes node down administratively: every live connection the
// injector has wrapped for it is severed with a hard RST, and until
// HealNode every future dial or Conn from it fails and every connection
// accepted on its listener arrives already dead. Unlike the seeded Crash
// schedule this is deterministic in time, not in bytes: the failover
// soak calls it to kill a shard primary at a chosen moment mid-batch.
// Returns the number of live connections severed; killing an
// already-dead node is a no-op.
func (in *Injector) KillNode(node int) int {
	in.killMu.Lock()
	if in.killed[node] {
		in.killMu.Unlock()
		return 0
	}
	in.killed[node] = true
	conns := in.live[node]
	delete(in.live, node)
	in.killMu.Unlock()
	severed := 0
	for c := range conns {
		if c.downed.CompareAndSwap(false, true) {
			if tc, ok := c.Conn.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			c.Conn.Close()
			in.kills.Add(1)
			severed++
		}
	}
	return severed
}

// HealNode brings a killed node back: future dials and accepts for it
// behave normally again (connections severed by the kill stay dead —
// the node's transport must reconnect, as a restarted process would).
func (in *Injector) HealNode(node int) {
	in.killMu.Lock()
	delete(in.killed, node)
	in.killMu.Unlock()
}

// NodeKilled reports whether node is currently administratively down.
func (in *Injector) NodeKilled(node int) bool {
	in.killMu.Lock()
	defer in.killMu.Unlock()
	return in.killed[node]
}

// dropLive removes a closed connection from the node registry.
func (in *Injector) dropLive(c *faultConn) {
	in.killMu.Lock()
	if set := in.live[c.node]; set != nil {
		delete(set, c)
	}
	in.killMu.Unlock()
}

// fate is one connection's drawn fault plan.
type fate struct {
	cutAfter  int64 // sever after this many bytes (-1: never)
	reset     bool  // sever with SO_LINGER(0) instead of a plain close
	delayProb float64
	maxDelay  time.Duration
	delaySeed int64
	crashLeft *atomic.Int64 // shared per-node byte budget (nil: no schedule)
}

// draw rolls one connection's fate under mu, keeping the draw sequence a
// pure function of the seed and draw order.
func (in *Injector) draw(node int) fate {
	in.mu.Lock()
	defer in.mu.Unlock()
	f := fate{cutAfter: -1, delayProb: in.cfg.Delay, maxDelay: in.cfg.MaxDelay, delaySeed: in.rng.Int63()}
	if in.cfg.Cut > 0 && in.rng.Float64() < in.cfg.Cut {
		f.cutAfter = 1 + in.rng.Int63n(int64(in.cfg.CutBytes))
	} else if in.cfg.Reset > 0 && in.rng.Float64() < in.cfg.Reset {
		f.cutAfter = 1 + in.rng.Int63n(int64(in.cfg.CutBytes))
		f.reset = true
	}
	if left, ok := in.crash.Load(node); ok {
		f.crashLeft = left.(*atomic.Int64)
	}
	return f
}

// admit counts one dial attempt (what) from node and draws whether it
// fails: always from a killed node, else with probability DialFail.
func (in *Injector) admit(node int, what string) error {
	in.dials.Add(1)
	in.killMu.Lock()
	dead := in.killed[node]
	in.killMu.Unlock()
	if dead {
		in.kills.Add(1)
		return fmt.Errorf("chaos: %s from killed node %d: %w", what, node, ErrInjected)
	}
	in.mu.Lock()
	fail := in.cfg.DialFail > 0 && in.rng.Float64() < in.cfg.DialFail
	in.mu.Unlock()
	if fail {
		in.dialsFailed.Add(1)
		return fmt.Errorf("chaos: %s from node %d: %w", what, node, ErrInjected)
	}
	return nil
}

// Conn is Dial without the dial, compatible with ha.Options.Conn: it
// wraps node's end c of an open connection (an in-process pipe) with
// the node's drawn fate, or refuses it as Dial would, closing c.
func (in *Injector) Conn(node int, c net.Conn) (net.Conn, error) {
	if err := in.admit(node, "conn"); err != nil {
		c.Close()
		return nil, err
	}
	return in.wrapConn(node, c), nil
}

// Dial returns a dialer compatible with cluster.Options.Dial: node is
// the dialing switch. With probability DialFail the attempt fails before
// touching the network; otherwise the established connection is wrapped
// with the node's drawn fate.
func (in *Injector) Dial(ctx context.Context, node int, addr string) (net.Conn, error) {
	if err := in.admit(node, "dial "+addr); err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return in.wrapConn(node, conn), nil
}

// WrapListener wraps a node's listener so every accepted connection
// carries an injected fate. Compatible with cluster.Options.WrapListener.
func (in *Injector) WrapListener(node int, ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, in: in, node: node}
}

func (in *Injector) wrapConn(node int, conn net.Conn) net.Conn {
	in.conns.Add(1)
	f := in.draw(node)
	c := &faultConn{
		Conn: conn,
		in:   in,
		node: node,
		fate: f,
		rng:  rand.New(rand.NewSource(f.delaySeed)),
	}
	in.killMu.Lock()
	dead := in.killed[node]
	if !dead {
		set := in.live[node]
		if set == nil {
			set = make(map[*faultConn]struct{})
			in.live[node] = set
		}
		set[c] = struct{}{}
	}
	in.killMu.Unlock()
	if dead {
		// A killed node's listener still accepts at the TCP layer, but
		// the connection arrives already severed: returning it (rather
		// than an Accept error) keeps the host's accept loop alive.
		c.downed.Store(true)
		conn.Close()
		in.kills.Add(1)
	}
	return c
}

// faultListener wraps Accept; deadline control is forwarded so the
// cluster runtime's per-accept deadlines survive the wrapping.
type faultListener struct {
	net.Listener
	in   *Injector
	node int
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.wrapConn(l.node, conn), nil
}

// SetDeadline forwards to the underlying listener when it supports
// deadlines (*net.TCPListener does).
func (l *faultListener) SetDeadline(t time.Time) error {
	if d, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// faultConn applies one fate to a real connection. The per-operation rng
// is connection-local but still locked: replication streams (internal/ha)
// drive one conn from a reader and a writer goroutine concurrently.
type faultConn struct {
	net.Conn
	in   *Injector
	node int
	fate fate

	rngMu sync.Mutex
	rng   *rand.Rand

	moved  atomic.Int64 // bytes moved through this conn (reads + writes)
	downed atomic.Bool  // severed by cut/reset/crash
}

// sever kills the connection, optionally with a hard RST (on a non-TCP
// conn, a plain close counted as a reset).
func (c *faultConn) sever(reset bool) {
	if !c.downed.CompareAndSwap(false, true) {
		return
	}
	if reset {
		if tc, ok := c.Conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.in.resets.Add(1)
	} else {
		c.in.cuts.Add(1)
	}
	c.Conn.Close()
}

// charge accounts n transferred bytes against the cut and crash budgets
// and reports whether the connection should now be severed.
func (c *faultConn) charge(n int) bool {
	moved := c.moved.Add(int64(n))
	if c.fate.crashLeft != nil && c.fate.crashLeft.Add(-int64(n)) < 0 {
		c.in.crashes.Add(1)
		if c.downed.CompareAndSwap(false, true) {
			c.Conn.Close()
		}
		return true
	}
	if c.fate.cutAfter >= 0 && moved >= c.fate.cutAfter {
		c.sever(c.fate.reset)
		return true
	}
	return false
}

// stall injects one optional delay. The draw happens under rngMu; the
// sleep itself does not, so a stalled read never delays a concurrent
// write's fate draw.
func (c *faultConn) stall() {
	if c.fate.delayProb <= 0 {
		return
	}
	c.rngMu.Lock()
	var d time.Duration
	if c.rng.Float64() < c.fate.delayProb {
		d = time.Duration(1 + c.rng.Int63n(int64(c.fate.maxDelay)))
	}
	c.rngMu.Unlock()
	if d > 0 {
		c.in.delays.Add(1)
		time.Sleep(d)
	}
}

// Close deregisters the connection from the kill registry before
// closing it, so KillNode never holds references to gone connections.
func (c *faultConn) Close() error {
	c.in.dropLive(c)
	return c.Conn.Close()
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.downed.Load() {
		return 0, ErrInjected
	}
	c.stall()
	// Cap the read so a cut lands exactly on its byte budget, mid-frame.
	if c.fate.cutAfter >= 0 {
		if left := c.fate.cutAfter - c.moved.Load(); left > 0 && int64(len(p)) > left {
			p = p[:left]
		}
	}
	n, err := c.Conn.Read(p)
	if c.charge(n) && err == nil {
		return n, ErrInjected
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.downed.Load() {
		return 0, ErrInjected
	}
	c.stall()
	if c.fate.cutAfter >= 0 {
		if left := c.fate.cutAfter - c.moved.Load(); left > 0 && int64(len(p)) > left {
			n, err := c.Conn.Write(p[:left])
			if c.charge(n) && err == nil {
				return n, ErrInjected
			}
			return n, err
		}
	}
	n, err := c.Conn.Write(p)
	if c.charge(n) && err == nil {
		return n, ErrInjected
	}
	return n, err
}
