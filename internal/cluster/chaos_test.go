package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"soar/internal/chaos"
	"soar/internal/core"
	"soar/internal/topology"
	"soar/internal/wire"
)

// chaosLoads builds the standard leaf-loaded instance used across these
// tests.
func chaosLoads(tr *topology.Tree) []int {
	loads := make([]int, tr.N())
	for _, v := range tr.Leaves() {
		loads[v] = 2
	}
	return loads
}

// fastRetry keeps fault-heavy tests quick.
var fastRetry = RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

func TestRunWithDelaysStaysExact(t *testing.T) {
	// Pure delays: the run must still complete and agree with the serial
	// solver bit for bit — slowness is not an error.
	tr := topology.MustBT(16)
	loads := chaosLoads(tr)
	in := chaos.New(chaos.Config{Seed: 1, Delay: 0.3, MaxDelay: time.Millisecond})
	opts := &Options{Dial: in.Dial, WrapListener: in.WrapListener, Retry: fastRetry}
	res, err := RunWithOptions(failureCtx(t), tr, loads, nil, 2, opts)
	if err != nil {
		t.Fatalf("run under delays: %v", err)
	}
	want := core.Solve(tr, loads, nil, 2)
	if res.Cost != want.Cost {
		t.Fatalf("cost %v under delays, serial %v", res.Cost, want.Cost)
	}
	if res.ReducePhi != res.Cost {
		t.Fatalf("measured φ %v != cost %v", res.ReducePhi, res.Cost)
	}
}

func TestDialRetryRecoversFromTransientFailures(t *testing.T) {
	// Every node's first two dial attempts fail; bounded retry must
	// absorb that without the run ever noticing.
	tr := topology.MustBT(16)
	loads := chaosLoads(tr)
	failures := make([]int, tr.N())
	opts := &Options{
		Retry: RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Dial: func(ctx context.Context, node int, addr string) (net.Conn, error) {
			// Nodes dial sequentially within themselves, so this count
			// is only ever touched by node's own goroutine.
			if failures[node] < 2 {
				failures[node]++
				return nil, fmt.Errorf("transient dial failure %d: %w", failures[node], chaos.ErrInjected)
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	}
	res, err := RunWithOptions(failureCtx(t), tr, loads, nil, 2, opts)
	if err != nil {
		t.Fatalf("run with transient dial failures: %v", err)
	}
	want := core.Solve(tr, loads, nil, 2)
	if res.Cost != want.Cost {
		t.Fatalf("cost %v, serial %v", res.Cost, want.Cost)
	}
	for v, f := range failures {
		if f != 2 {
			t.Fatalf("node %d saw %d injected failures, want 2", v, f)
		}
	}
}

func TestDialRetryExhaustionFailsRun(t *testing.T) {
	tr := topology.MustBT(8)
	loads := chaosLoads(tr)
	in := chaos.New(chaos.Config{Seed: 5, DialFail: 1})
	opts := &Options{Dial: in.Dial, Retry: fastRetry, FrameTimeout: 2 * time.Second}
	_, err := RunWithOptions(failureCtx(t), tr, loads, nil, 2, opts)
	if err == nil {
		t.Fatal("run succeeded with every dial failing")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error %v does not unwrap to the injected fault", err)
	}
}

func TestRunOrFallbackDegradesToLocalSolve(t *testing.T) {
	// Total transport failure: RunOrFallback must answer anyway, exactly,
	// with the degraded flag raised and the cause preserved.
	tr := topology.MustBT(32)
	loads := chaosLoads(tr)
	in := chaos.New(chaos.Config{Seed: 11, DialFail: 1})
	opts := &Options{Dial: in.Dial, Retry: fastRetry, FrameTimeout: 2 * time.Second}
	res, err := RunOrFallback(failureCtx(t), tr, loads, nil, 4, opts)
	if err != nil {
		t.Fatalf("RunOrFallback errored instead of degrading: %v", err)
	}
	if !res.Degraded {
		t.Fatal("run through a fully dead transport was not flagged degraded")
	}
	if res.Cause == nil || !errors.Is(res.Cause, chaos.ErrInjected) {
		t.Fatalf("degraded cause %v, want the injected fault", res.Cause)
	}
	if res.Attempts != fastRetry.Attempts {
		t.Fatalf("made %d attempts, want %d", res.Attempts, fastRetry.Attempts)
	}
	want := core.Solve(tr, loads, nil, 4)
	if res.Cost != want.Cost {
		t.Fatalf("degraded cost %v, serial %v", res.Cost, want.Cost)
	}
	if res.ReducePhi != want.Cost {
		t.Fatalf("degraded φ %v, want %v", res.ReducePhi, want.Cost)
	}
	for v := range res.Blue {
		if res.Blue[v] != want.Blue[v] {
			t.Fatalf("degraded placement differs at switch %d", v)
		}
	}
}

func TestRunOrFallbackAlwaysAnswersUnderChaos(t *testing.T) {
	// The headline robustness property: under any mix of dial failures,
	// cuts, resets and delays, RunOrFallback returns the exact optimum —
	// distributed when the network lets it, degraded-local when not.
	tr := topology.MustBT(16)
	loads := chaosLoads(tr)
	want := core.Solve(tr, loads, nil, 2)
	degraded := 0
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		in := chaos.New(chaos.Config{
			Seed:     int64(seed),
			DialFail: 0.1,
			Cut:      0.1,
			Reset:    0.05,
			CutBytes: 128,
			Delay:    0.05,
			MaxDelay: time.Millisecond,
		})
		opts := &Options{Dial: in.Dial, WrapListener: in.WrapListener, Retry: fastRetry, FrameTimeout: 2 * time.Second}
		res, err := RunOrFallback(failureCtx(t), tr, loads, nil, 2, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Cost != want.Cost {
			t.Fatalf("seed %d: cost %v (degraded=%v), serial %v", seed, res.Cost, res.Degraded, want.Cost)
		}
		if res.Degraded {
			degraded++
		}
	}
	t.Logf("chaos sweep: %d/%d runs degraded to the local solver", degraded, seeds)
}

func TestRunOrFallbackCrashSchedule(t *testing.T) {
	// A scheduled node crash (the root dies almost immediately) must
	// never produce a wrong answer: either the retry wins a clean run on
	// a later attempt or the result degrades to the local solve.
	tr := topology.MustBT(16)
	loads := chaosLoads(tr)
	want := core.Solve(tr, loads, nil, 2)
	in := chaos.New(chaos.Config{Seed: 2, Crash: map[int]int64{tr.Root(): 4}})
	opts := &Options{Dial: in.Dial, WrapListener: in.WrapListener, Retry: fastRetry, FrameTimeout: 2 * time.Second}
	res, err := RunOrFallback(failureCtx(t), tr, loads, nil, 2, opts)
	if err != nil {
		t.Fatalf("RunOrFallback: %v", err)
	}
	if !res.Degraded {
		t.Fatal("root crashes on every attempt, result must be degraded")
	}
	if res.Cost != want.Cost {
		t.Fatalf("cost %v, serial %v", res.Cost, want.Cost)
	}
	if st := in.Stats(); st.Crashes == 0 {
		t.Fatalf("injector stats %+v recorded no crashes", st)
	}
}

func TestFrameTimeoutUnblocksSilentPeer(t *testing.T) {
	// Satellite regression: with a context that has NO deadline, a peer
	// that connects and then goes silent used to block a frame read
	// forever. The per-frame timeout must fail the run instead.
	tr := topology.MustBT(4)
	loads := chaosLoads(tr)
	withListenerHook(t, func(ls []net.Listener) {
		// The rogue dials the destination first and sends a valid Hello,
		// then goes silent: the destination blocks reading the Gather
		// frame, bounded only by the per-frame timeout.
		addr := ls[len(ls)-1].Addr().String()
		go func() {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer conn.Close()
			wire.Write(conn, &wire.Hello{Child: uint32(tr.Root())})
			time.Sleep(20 * time.Second)
		}()
	})
	opts := &Options{FrameTimeout: 300 * time.Millisecond, Retry: RetryPolicy{Attempts: 1}}
	done := make(chan error, 1)
	go func() {
		// Deliberately no deadline on the context.
		_, err := RunWithOptions(context.Background(), tr, loads, nil, 2, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a silent peer succeeded, want timeout error")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run blocked on a silent peer despite the per-frame timeout")
	}
}

func TestNegativeFrameTimeoutStaysDisabled(t *testing.T) {
	// RunOrFallback defaults its options and RunWithOptions defaults them
	// again: a disabled frame timeout must survive both, not turn into
	// DefaultFrameTimeout on the second pass.
	if got := (&Options{FrameTimeout: -1}).withDefaults().withDefaults().FrameTimeout; got > 0 {
		t.Fatalf("FrameTimeout -1 became %v after defaulting twice", got)
	}
}

func TestRunOrFallbackRejectsBadInput(t *testing.T) {
	// Validation errors are permanent: no retry, no degraded answer.
	tr := topology.MustBT(8)
	if _, err := RunOrFallback(failureCtx(t), tr, []int{1, 2}, nil, 2, nil); err == nil {
		t.Fatal("short load vector was degraded over instead of rejected")
	}
	bad := make([]int, tr.N())
	caps := make([]int, tr.N())
	caps[0] = -1
	if _, err := RunOrFallback(failureCtx(t), tr, bad, caps, 2, nil); err == nil {
		t.Fatal("negative capacity was degraded over instead of rejected")
	}
}
