package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"soar/internal/topology"
	"soar/internal/wire"
)

// withListenerHook installs a listener hook for one test.
func withListenerHook(t *testing.T, hook func([]net.Listener)) {
	t.Helper()
	testListenerHook = hook
	t.Cleanup(func() { testListenerHook = nil })
}

func failureCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRogueHelloAbortsRun(t *testing.T) {
	// A connection claiming to be a switch that is not a child must abort
	// the run with an error, never hang it. The rogue targets the root
	// and dials inside the hook — before any node starts — so it is first
	// in the root's accept queue however fast the real children finish.
	tr := topology.MustBT(16)
	loads := make([]int, tr.N())
	for _, v := range tr.Leaves() {
		loads[v] = 2
	}
	withListenerHook(t, func(ls []net.Listener) {
		conn, err := net.Dial("tcp", ls[tr.Root()].Addr().String())
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			wire.Write(conn, &wire.Hello{Child: 9999})
			time.Sleep(time.Second)
		}()
	})
	_, err := Run(failureCtx(t), tr, loads, nil, 2)
	if err == nil {
		t.Fatal("run with rogue connection succeeded, want error")
	}
}

func TestGarbageFrameAbortsRun(t *testing.T) {
	// Raw garbage instead of a framed Hello must be rejected by the
	// decoder and fail the run.
	tr := topology.MustBT(16)
	loads := make([]int, tr.N())
	for _, v := range tr.Leaves() {
		loads[v] = 2
	}
	withListenerHook(t, func(ls []net.Listener) {
		conn, err := net.Dial("tcp", ls[tr.Root()].Addr().String())
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
			time.Sleep(time.Second)
		}()
	})
	_, err := Run(failureCtx(t), tr, loads, nil, 2)
	if err == nil {
		t.Fatal("run with garbage frames succeeded, want error")
	}
}

func TestImpostorDuplicateChildAbortsRun(t *testing.T) {
	// An impostor presenting a *valid* child id gets past the Hello
	// check; when the true child also connects, the duplicate must be
	// detected and the run torn down (never two accepted identities).
	tr := topology.MustBT(16)
	loads := make([]int, tr.N())
	for _, v := range tr.Leaves() {
		loads[v] = 2
	}
	child := tr.Children(tr.Root())[0]
	withListenerHook(t, func(ls []net.Listener) {
		conn, err := net.Dial("tcp", ls[tr.Root()].Addr().String())
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			wire.Write(conn, &wire.Hello{Child: uint32(child)})
			time.Sleep(2 * time.Second)
		}()
	})
	_, err := Run(failureCtx(t), tr, loads, nil, 2)
	if err == nil {
		t.Fatal("run with impostor child succeeded, want error")
	}
}

func TestCancellationNeverHangs(t *testing.T) {
	tr := topology.MustBT(16)
	loads := make([]int, tr.N())
	for _, v := range tr.Leaves() {
		loads[v] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, tr, loads, nil, 2)
		done <- err
	}()
	cancel()
	select {
	case <-done:
		// Either the run won the race and finished, or it errored — both
		// acceptable; hanging is not.
	case <-time.After(15 * time.Second):
		t.Fatal("Run hung after cancellation")
	}
}

func TestRunManySequential(t *testing.T) {
	// Port / goroutine leak check: repeated runs must not accumulate
	// state or deadlock.
	tr := topology.MustBT(8)
	loads := make([]int, tr.N())
	for _, v := range tr.Leaves() {
		loads[v] = 3
	}
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := Run(ctx, tr, loads, nil, 2)
		cancel()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Cost <= 0 {
			t.Fatalf("run %d: cost %v", i, res.Cost)
		}
	}
}
