// Package cluster deploys SOAR over a real transport: every switch is a
// node with its own TCP listener on the loopback interface, every tree
// edge is a TCP connection, and the SOAR-Gather tables, SOAR-Color
// assignments and Reduce results travel as binary frames (internal/wire).
//
// The paper describes SOAR-Gather and SOAR-Color as distributed
// asynchronous algorithms synchronized purely by message arrival
// (Sec. 4.2); this package is that description made concrete. A run
// performs, in order, on every edge's single connection:
//
//	child → parent   Hello      (identify the edge)
//	child → parent   Gather     (the child's X table)
//	parent → child   Color      (budget and barrier distance ℓ)
//	child → parent   ReduceDone (messages crossed + subtree φ)
//
// The destination d is played by the coordinator, which accepts the
// root's connection, reads the optimal cost from the root's table, sends
// the budget k down, and receives the final Reduce result.
//
// The runtime no longer assumes a perfect network. Every frame exchange
// carries its own I/O deadline (Options.FrameTimeout) independent of any
// context deadline, so a dead peer fails the frame instead of hanging
// the run; transient dial failures are retried with exponential backoff
// and jitter (Options.Retry); and RunOrFallback (retry.go) degrades
// gracefully — when whole-run retries are exhausted it answers from a
// local core.SolveCaps solve, flagged Degraded, instead of erroring.
// Faults can be injected deterministically through Options.Dial and
// Options.WrapListener (see internal/chaos).
//
// The package shows the protocol; it does not serve admissions.
// soarctl cluster and examples/cluster run it, and the NaaS daemon
// does not: its scheduler solves in process (internal/sched).
package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"soar/internal/core"
	"soar/internal/topology"
	"soar/internal/wire"
)

// DefaultFrameTimeout is the per-frame I/O deadline applied when
// Options.FrameTimeout is unset. It bounds how long any single accept,
// frame read or frame write may block — even when the caller's context
// has no deadline — so one dead peer can never hang a run forever.
const DefaultFrameTimeout = 10 * time.Second

// RetryPolicy bounds retries of transient transport failures with
// exponential backoff and jitter. The zero value selects the defaults
// (4 attempts, 5ms base delay doubling up to 250ms).
type RetryPolicy struct {
	// Attempts is the total number of tries (1 = no retry; default 4).
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles every
	// retry (default 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 250ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.Attempts <= 0 {
		return 4
	}
	return p.Attempts
}

// backoff returns the jittered delay before retry number attempt (≥ 1):
// uniform in [d/2, d] where d = min(MaxDelay, BaseDelay·2^(attempt−1)).
// Full determinism is not a goal here (jitter exists to de-synchronize
// retry storms), so the shared math/rand source is fine.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	base, maxd := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if maxd <= 0 {
		maxd = 250 * time.Millisecond
	}
	d := base << (attempt - 1)
	if d <= 0 || d > maxd {
		d = maxd
	}
	return d/2 + time.Duration(rngInt63n(int64(d/2)+1))
}

// sleepBackoff waits out the backoff for retry number attempt, honoring
// ctx cancellation.
func sleepBackoff(ctx context.Context, p RetryPolicy, attempt int) error {
	t := time.NewTimer(p.backoff(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Options tunes a run's transport behavior. The zero value (or a nil
// *Options) selects plain TCP with the default frame timeout and retry
// policy.
type Options struct {
	// Dial dials addr on behalf of the given node (switches 0..n−1; the
	// destination never dials). nil uses a plain net.Dialer. Fault
	// injectors substitute their own (chaos.Injector.Dial).
	Dial func(ctx context.Context, node int, addr string) (net.Conn, error)
	// WrapListener wraps node's freshly created listener (switches
	// 0..n−1, the destination as node n). nil leaves listeners bare.
	WrapListener func(node int, ln net.Listener) net.Listener
	// FrameTimeout is the per-frame I/O deadline, applied to every
	// accept, frame read and frame write independently of ctx (default
	// DefaultFrameTimeout; < 0 disables, leaving only ctx to bound I/O).
	FrameTimeout time.Duration
	// Retry bounds transient-failure retries: per-node dial attempts in
	// Run, whole-run attempts in RunOrFallback.
	Retry RetryPolicy
}

func (o *Options) withDefaults() *Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Dial == nil {
		out.Dial = func(ctx context.Context, _ int, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if out.WrapListener == nil {
		out.WrapListener = func(_ int, ln net.Listener) net.Listener { return ln }
	}
	// A negative timeout stays negative, so defaulting twice (as
	// RunOrFallback → RunWithOptions does) keeps it disabled.
	if out.FrameTimeout == 0 {
		out.FrameTimeout = DefaultFrameTimeout
	}
	return &out
}

// Result is the outcome of a cluster run.
type Result struct {
	// Blue is the placement decided by the distributed SOAR-Color.
	Blue []bool
	// Cost is the optimal φ the destination read from the root's table.
	Cost float64
	// ReduceMessages is the number of messages the destination received
	// over the (r, d) edge during the distributed Reduce.
	ReduceMessages int64
	// ReducePhi is the utilization Σ msg_e·ρ(e) accumulated hop by hop
	// during the distributed Reduce; it must equal Cost.
	ReducePhi float64
	// Degraded reports that the distributed run failed even after
	// retries and the result was computed by a local solve instead
	// (RunOrFallback). A degraded result is still exact — the local
	// solver is the same DP — but no Reduce traffic actually crossed
	// the network.
	Degraded bool
	// Attempts is the number of whole-run attempts RunOrFallback made
	// (1 for a first-try success; 0 when Run was called directly).
	Attempts int
	// Cause is the last transport error when Degraded, nil otherwise.
	Cause error
}

// Run executes SOAR and a Reduce over a loopback TCP mesh and returns the
// placement, the DP cost, and the measured Reduce cost. It honors ctx
// cancellation and deadlines; on any node error the whole run is torn
// down and the first error returned.
func Run(ctx context.Context, t *topology.Tree, load []int, avail []bool, k int) (*Result, error) {
	if avail == nil {
		return RunCaps(ctx, t, load, nil, k) // nil caps already means weight 1 everywhere
	}
	weights := make([]int, t.N())
	for v := range weights {
		if avail[v] {
			weights[v] = 1
		}
	}
	return RunCaps(ctx, t, load, weights, k)
}

// RunCaps is Run under the heterogeneous capacity model (see
// core.SolveCaps): a blue at v consumes caps[v] of the budget and
// caps[v] = 0 means v may never aggregate. caps == nil means every
// switch has capacity 1. The wire protocol is unchanged — capacities
// only reshape the effective budgets, and with them the width of the
// Gather frames each parent accepts.
func RunCaps(ctx context.Context, t *topology.Tree, load []int, caps []int, k int) (*Result, error) {
	return RunWithOptions(ctx, t, load, caps, k, nil)
}

// validateInputs rejects malformed problems before any socket is opened.
// These errors are permanent: neither retry nor fallback can fix them.
func validateInputs(t *topology.Tree, load []int, caps []int) error {
	if len(load) != t.N() {
		return fmt.Errorf("cluster: load has %d entries for %d switches", len(load), t.N())
	}
	if caps != nil && len(caps) != t.N() {
		return fmt.Errorf("cluster: caps has %d entries for %d switches", len(caps), t.N())
	}
	for v, c := range caps {
		if c < 0 {
			return fmt.Errorf("cluster: switch %d has negative capacity %d", v, c)
		}
	}
	return nil
}

// RunWithOptions is RunCaps with explicit transport options: custom
// dialers and listener wrappers (fault injection), per-frame I/O
// deadlines and the dial retry policy.
func RunWithOptions(ctx context.Context, t *topology.Tree, load []int, caps []int, k int, opts *Options) (*Result, error) {
	if err := validateInputs(t, load, caps); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if k < 0 {
		k = 0
	}
	n := t.N()
	subLoad := t.SubtreeLoads(load)
	// Effective budgets bound every table's width: a child's Gather
	// frame must carry exactly cap[c]+1 = min(k, Σ_{u ∈ T_c} c(u))+1
	// budget columns, which both shrinks the frames and lets each parent
	// reject mis-shaped tables.
	ecaps := core.EffectiveCapsVec(t, caps, k)

	// One listener per switch plus one for the destination, all created
	// up front so that children always find their parent listening.
	listeners := make([]net.Listener, n+1)
	var lc net.ListenConfig
	for i := range listeners {
		ln, err := lc.Listen(ctx, "tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
		listeners[i] = opts.WrapListener(i, ln)
	}
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	if testListenerHook != nil {
		testListenerHook(listeners)
	}
	addrOf := func(v int) string { return listeners[v].Addr().String() }
	destListener := listeners[n]

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	res := &Result{Blue: make([]bool, n)}
	errCh := make(chan error, n+1)
	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			capw := 1
			if caps != nil {
				capw = caps[v]
			}
			if err := runNode(runCtx, t, v, load[v], subLoad[v] > 0, capw, k, ecaps,
				listeners[v], addrOf, res.Blue, opts); err != nil {
				errCh <- fmt.Errorf("switch %d: %w", v, err)
				cancel()
			}
		}(v)
	}

	// Play the destination.
	destErr := make(chan error, 1)
	go func() {
		err := runDestination(runCtx, destListener, k, ecaps[t.Root()], res, opts)
		if err != nil {
			cancel() // unblock the switches before Run waits on them
		}
		destErr <- err
	}()

	// Tear down listeners if the context dies so Accept calls unblock.
	go func() {
		<-runCtx.Done()
		for _, l := range listeners {
			l.Close()
		}
	}()

	wg.Wait()
	if err := <-destErr; err != nil {
		select {
		case nodeErr := <-errCh:
			return nil, nodeErr // a node failure is the root cause
		default:
			return nil, err
		}
	}
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return res, nil
}

// testListenerHook, when non-nil, receives the freshly created listeners
// (switch 0..n-1, destination last) before any node starts. Failure-
// injection tests use it to attack the protocol from outside.
var testListenerHook func([]net.Listener)

// edge wraps one tree-edge connection with buffered framing and a
// per-frame I/O deadline: every send and recv is bounded by timeout on
// its own, independent of any context deadline, so a peer that stops
// mid-protocol fails the frame instead of blocking forever.
type edge struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
}

func newEdge(conn net.Conn, timeout time.Duration) *edge {
	return &edge{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), timeout: timeout}
}

func (e *edge) send(m wire.Message) error {
	t0 := time.Now()
	if e.timeout > 0 {
		e.conn.SetWriteDeadline(t0.Add(e.timeout))
	}
	err := wire.Write(e.w, m)
	if err == nil {
		err = e.w.Flush()
	}
	return err
}

// recv reads one typed frame under the edge's per-frame deadline.
func recv[M wire.Message](e *edge) (M, error) {
	t0 := time.Now()
	if e.timeout > 0 {
		e.conn.SetReadDeadline(t0.Add(e.timeout))
	}
	return wire.ReadTyped[M](e.r)
}

func (e *edge) close() {
	if e != nil {
		e.conn.Close()
	}
}

// accept bounds one Accept call with the per-frame deadline when the
// listener supports deadlines (*net.TCPListener and the chaos wrapper
// both do).
func accept(ln net.Listener, timeout time.Duration) (net.Conn, error) {
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		if timeout > 0 {
			d.SetDeadline(time.Now().Add(timeout))
		} else {
			d.SetDeadline(time.Time{})
		}
	}
	return ln.Accept()
}

// dialWithRetry dials the node's parent with bounded retries: transient
// dial failures (the network analogue of a lost SYN) back off
// exponentially with jitter until the policy is exhausted or ctx dies.
func dialWithRetry(ctx context.Context, opts *Options, node int, addr string) (net.Conn, error) {
	var lastErr error
	attempts := opts.Retry.attempts()
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if err := sleepBackoff(ctx, opts.Retry, attempt-1); err != nil {
				return nil, err
			}
		}
		conn, err := opts.Dial(ctx, node, addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("dial parent: %d attempts exhausted: %w", attempts, lastErr)
}

// runNode is the full lifecycle of one switch. capw is the switch's own
// capacity weight; ecaps the tree-wide effective budgets bounding every
// frame's width.
func runNode(ctx context.Context, t *topology.Tree, v, loadV int, hasLoad bool,
	capw, k int, ecaps []int, ln net.Listener, addrOf func(int) string, blueOut []bool, opts *Options) error {

	children := t.Children(v)

	// Accept one connection per child; Hello identifies which child.
	childEdge := make(map[int]*edge, len(children))
	defer func() {
		for _, e := range childEdge {
			e.close()
		}
	}()
	for range children {
		conn, err := accept(ln, opts.FrameTimeout)
		if err != nil {
			return fmt.Errorf("accept: %w", err)
		}
		bindToCtx(ctx, conn)
		e := newEdge(conn, opts.FrameTimeout)
		hello, err := recv[*wire.Hello](e)
		if err != nil {
			conn.Close()
			return fmt.Errorf("hello: %w", err)
		}
		c := int(hello.Child)
		if c < 0 || c >= t.N() || t.Parent(c) != v {
			conn.Close()
			return fmt.Errorf("hello from %d, which is not a child", c)
		}
		if _, dup := childEdge[c]; dup {
			conn.Close()
			return fmt.Errorf("duplicate hello from child %d", c)
		}
		childEdge[c] = e
	}

	// SOAR-Gather: collect the children's X tables, in child order.
	childX := make([][]float64, len(children))
	for i, c := range children {
		g, err := recv[*wire.Gather](childEdge[c])
		if err != nil {
			return fmt.Errorf("gather from %d: %w", c, err)
		}
		if int(g.Child) != c || int(g.Rows) != t.Depth(c)+1 || int(g.Cols) != ecaps[c]+1 {
			return fmt.Errorf("gather from %d has shape %dx%d for child %d (want %dx%d)",
				g.Child, g.Rows, g.Cols, c, t.Depth(c)+1, ecaps[c]+1)
		}
		childX[i] = g.X
	}
	ns, err := core.NewNodeStateCaps(t, v, loadV, hasLoad, capw, k, childX)
	if err != nil {
		return err
	}

	// Dial the parent (or the destination, for the root) and ship our table.
	parentAddr := addrOf(t.N()) // destination
	if p := t.Parent(v); p != topology.NoParent {
		parentAddr = addrOf(p)
	}
	conn, err := dialWithRetry(ctx, opts, v, parentAddr)
	if err != nil {
		return err
	}
	bindToCtx(ctx, conn)
	up := newEdge(conn, opts.FrameTimeout)
	defer up.close()
	if err := up.send(&wire.Hello{Child: uint32(v)}); err != nil {
		return err
	}
	x := ns.XTable()
	if err := up.send(&wire.Gather{
		Child: uint32(v),
		Rows:  uint32(t.Depth(v) + 1),
		Cols:  uint32(ns.Cap() + 1),
		X:     x,
	}); err != nil {
		return err
	}

	// SOAR-Color: receive our assignment, decide, forward the splits.
	cm, err := recv[*wire.Color](up)
	if err != nil {
		return fmt.Errorf("color: %w", err)
	}
	isBlue, childBudget, childL, err := ns.Decide(int(cm.Budget), int(cm.L))
	if err != nil {
		return err
	}
	blueOut[v] = isBlue // distinct index per goroutine
	for i, c := range children {
		if err := childEdge[c].send(&wire.Color{Budget: uint32(childBudget[i]), L: uint32(childL)}); err != nil {
			return fmt.Errorf("color to %d: %w", c, err)
		}
	}

	// Reduce: wait for the children's results, apply Algorithm 1 locally,
	// report upward.
	var inMsgs int64
	var phi float64
	for _, c := range children {
		rd, err := recv[*wire.ReduceDone](childEdge[c])
		if err != nil {
			return fmt.Errorf("reduce from %d: %w", c, err)
		}
		inMsgs += int64(rd.Messages)
		phi += rd.Phi()
	}
	out := inMsgs + int64(loadV)
	if isBlue && out > 1 {
		out = 1
	}
	phi += float64(out) * t.Rho(v)
	done := &wire.ReduceDone{Child: uint32(v), Messages: uint64(out)}
	done.SetPhi(phi)
	return up.send(done)
}

// runDestination plays d: accept the root, read the optimum, start the
// color phase with budget k, and collect the Reduce result. capRoot is
// the root's effective budget min(k, Σ c(u)) — min(k, |Λ|) in the
// uniform model — the width (minus one) of the table frame the root must
// ship.
func runDestination(ctx context.Context, ln net.Listener, k, capRoot int, res *Result, opts *Options) error {
	// The root dials d only after the whole tree below it has gathered,
	// so this accept legitimately spans every lower phase (plus any
	// dial retries): give it the whole retry envelope, not one frame.
	acceptTimeout := opts.FrameTimeout
	if acceptTimeout > 0 {
		acceptTimeout *= time.Duration(opts.Retry.attempts())
	}
	conn, err := accept(ln, acceptTimeout)
	if err != nil {
		return fmt.Errorf("destination accept: %w", err)
	}
	bindToCtx(ctx, conn)
	e := newEdge(conn, opts.FrameTimeout)
	defer e.close()
	if _, err := recv[*wire.Hello](e); err != nil {
		return fmt.Errorf("destination hello: %w", err)
	}
	g, err := recv[*wire.Gather](e)
	if err != nil {
		return fmt.Errorf("destination gather: %w", err)
	}
	if g.Rows < 2 || g.Cols != uint32(capRoot+1) {
		return fmt.Errorf("root table has shape %dx%d, want 2x%d", g.Rows, g.Cols, capRoot+1)
	}
	res.Cost = g.X[1*(capRoot+1)+capRoot] // X_r(1, k) = X_r(1, cap), paper Eq. 6
	if err := e.send(&wire.Color{Budget: uint32(k), L: 1}); err != nil {
		return err
	}
	rd, err := recv[*wire.ReduceDone](e)
	if err != nil {
		return fmt.Errorf("destination reduce: %w", err)
	}
	res.ReduceMessages = int64(rd.Messages)
	res.ReducePhi = rd.Phi()
	return nil
}

// bindToCtx binds a connection's lifetime to the context: cancellation
// closes the socket so blocked reads and writes unwind promptly. I/O
// timeouts are NOT taken from the context anymore — every frame carries
// its own deadline (edge.timeout) — so a context without a deadline no
// longer means unbounded blocking on a dead peer. The registration is
// released when the run's context is canceled (Run always cancels on
// exit), so nothing leaks.
func bindToCtx(ctx context.Context, conn net.Conn) {
	context.AfterFunc(ctx, func() { conn.Close() })
}
