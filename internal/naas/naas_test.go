package naas

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"soar/internal/load"
	"soar/internal/paper"
	"soar/internal/reduce"
	"soar/internal/sched"
	"soar/internal/topology"
)

// serveScheduler fronts a fresh scheduler over tr, every switch serving
// at most capacity tenants, on a test server.
func serveScheduler(t testing.TB, tr *topology.Tree, capacity int) (*sched.Scheduler, *httptest.Server) {
	t.Helper()
	sch := sched.New(tr, sched.Config{Capacity: capacity})
	t.Cleanup(sch.Close)
	ts := httptest.NewServer(FromScheduler(sch).Handler())
	t.Cleanup(ts.Close)
	return sch, ts
}

func TestPlaceAndRelease(t *testing.T) {
	tr, loads := paper.Figure2()
	_, ts := serveScheduler(t, tr, 1)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	lease, err := c.Place(ctx, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Phi != 20 || lease.AllRed != 51 {
		t.Fatalf("lease φ=%v all-red=%v, want 20, 51", lease.Phi, lease.AllRed)
	}
	if len(lease.Blue) != 2 {
		t.Fatalf("leased %d switches, want 2", len(lease.Blue))
	}
	// Capacity 1: the second identical tenant cannot reuse switches 2, 4.
	lease2, err := c.Place(ctx, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lease2.Phi <= lease.Phi {
		t.Fatalf("second tenant φ=%v should be worse than first %v", lease2.Phi, lease.Phi)
	}
	// Release the first tenant; a third tenant recovers the optimum.
	if err := c.Release(ctx, lease.ID); err != nil {
		t.Fatal(err)
	}
	lease3, err := c.Place(ctx, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lease3.Phi != 20 {
		t.Fatalf("after release φ=%v, want 20", lease3.Phi)
	}
}

func TestReleaseUnknown(t *testing.T) {
	tr, _ := paper.Figure2()
	_, ts := serveScheduler(t, tr, 1)
	if err := NewClient(ts.URL, nil).Release(context.Background(), 42); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("err = %v, want HTTP 404", err)
	}
}

func TestPlaceValidation(t *testing.T) {
	tr, loads := paper.Figure2()
	_, ts := serveScheduler(t, tr, 1)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	for _, bad := range []struct {
		load []int
		k    int
	}{
		{[]int{1}, 2},                    // short load
		{[]int{-1, 0, 0, 0, 0, 0, 0}, 2}, // negative load
		{loads, -1},                      // negative k
	} {
		if _, err := c.Place(ctx, bad.load, bad.k); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
			t.Fatalf("Place(%v, %d): err = %v, want HTTP 400", bad.load, bad.k, err)
		}
	}
}

func TestSnapshot(t *testing.T) {
	tr, loads := paper.Figure2()
	_, ts := serveScheduler(t, tr, 2)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants != 0 || st.CapacityUsed != 0 || st.MeanRatio != 1 {
		t.Fatalf("fresh stats %+v", st)
	}
	lease, err := c.Place(ctx, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st.Tenants != 1 || st.CapacityUsed != 2 || st.SwitchesInUse != 2 {
		t.Fatalf("stats %+v", st)
	}
	if got, want := st.MeanRatio, lease.Ratio; got != want {
		t.Fatalf("mean ratio %v, want %v", got, want)
	}
	if st.CapacityTotal != int64(2*tr.N()) {
		t.Fatalf("capacity total %d", st.CapacityTotal)
	}
}

func TestConcurrentTenantsNeverOversubscribe(t *testing.T) {
	tr := topology.MustBT(64)
	_, ts := serveScheduler(t, tr, 2)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 10; i++ {
				loads := load.Generate(tr, load.PaperUniform(), load.LeavesOnly, rng)
				lease, err := c.Place(ctx, loads, 4)
				if err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(2) == 0 {
					if err := c.Release(ctx, lease.ID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	res, err := c.Residual(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res {
		if r < 0 {
			t.Fatalf("switch %d oversubscribed: residual %d", v, r)
		}
	}
}

// TestClosedSchedulerAnswers503: a scheduler that has shut down under a
// live front is the server going away, not a bad request or a lost
// tenant — place and release both answer 503.
func TestClosedSchedulerAnswers503(t *testing.T) {
	tr, loads := paper.Figure2()
	sch, ts := serveScheduler(t, tr, 2)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	lease, err := c.Place(ctx, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	sch.Close()
	if _, err := c.Place(ctx, loads, 2); err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("place after close: err = %v, want HTTP 503", err)
	}
	if err := c.Release(ctx, lease.ID); err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("release after close: err = %v, want HTTP 503", err)
	}
}

// --- HTTP round trips -------------------------------------------------

func newTestServer(t *testing.T) (*sched.Scheduler, *Client) {
	t.Helper()
	tr, _ := paper.Figure2()
	sch, ts := serveScheduler(t, tr, 2)
	return sch, NewClient(ts.URL, ts.Client())
}

func TestHTTPLifecycle(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	loads := []int{0, 0, 0, 2, 6, 5, 4}

	lease, err := c.Place(ctx, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Phi != 20 || lease.Ratio != 20.0/51 {
		t.Fatalf("lease %+v", lease)
	}
	got, err := c.Lookup(ctx, lease.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phi != lease.Phi || len(got.Blue) != len(lease.Blue) {
		t.Fatalf("lookup %+v vs %+v", got, lease)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants != 1 {
		t.Fatalf("stats %+v", st)
	}
	res, err := c.Residual(ctx)
	if err != nil {
		t.Fatal(err)
	}
	used := 0
	for _, r := range res {
		if r == 1 {
			used++
		}
	}
	if used != 2 {
		t.Fatalf("%d switches show one slot used, want 2", used)
	}
	if err := c.Release(ctx, lease.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, lease.ID); err == nil {
		t.Fatal("lookup after release succeeded")
	}
}

func TestCapacityExhaustionDegradesGracefully(t *testing.T) {
	// When every switch is leased out, new tenants still get (all-red)
	// placements rather than errors — mirroring the paper's online model.
	tr, loads := paper.Figure2()
	_, ts := serveScheduler(t, tr, 1)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	if _, err := c.Place(ctx, loads, 7); err != nil { // takes everything useful
		t.Fatal(err)
	}
	lease, err := c.Place(ctx, loads, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Ratio != 1 || len(lease.Blue) != 0 {
		t.Fatalf("exhausted service gave ratio %v with %d switches", lease.Ratio, len(lease.Blue))
	}
	if lease.Phi != reduce.Utilization(tr, loads, make([]bool, tr.N())) {
		t.Fatalf("exhausted lease φ=%v, want the all-red cost", lease.Phi)
	}
}

// --- Aliasing audit (regression) --------------------------------------

// TestNoAliasedState is the aliasing regression test: every slice the
// scheduler behind a front hands out (Lease.Blue, Lease.Load, the
// residual vector) must be a defensive copy, so a caller mutating — or
// racing on — a returned value can never corrupt the bookkeeping the
// front serves.
func TestNoAliasedState(t *testing.T) {
	tr, loads := paper.Figure2()
	s, ts := serveScheduler(t, tr, 2)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	lease, err := s.Place(loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantBlue := append([]int(nil), lease.Blue...)
	wantLoad := append([]int(nil), lease.Load...)

	// Vandalize everything Place returned.
	for i := range lease.Blue {
		lease.Blue[i] = -1
	}
	for i := range lease.Load {
		lease.Load[i] = -1
	}
	got, err := s.Lookup(lease.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Blue, wantBlue) || !reflect.DeepEqual(got.Load, wantLoad) {
		t.Fatalf("caller mutation reached the scheduler: %+v", got)
	}

	// Vandalize everything Lookup returned; the front still serves the
	// pristine lease.
	for i := range got.Blue {
		got.Blue[i] = -2
	}
	for i := range got.Load {
		got.Load[i] = -2
	}
	again, err := s.Lookup(lease.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Blue, wantBlue) || !reflect.DeepEqual(again.Load, wantLoad) {
		t.Fatal("Lookup result aliases scheduler state")
	}
	if served, err := c.Lookup(ctx, lease.ID); err != nil || !reflect.DeepEqual(served.Blue, wantBlue) {
		t.Fatalf("front serves %+v (%v), want blue %v", served, err, wantBlue)
	}

	// Vandalize the residual vector; release must still reclaim cleanly.
	res := s.Residual()
	for i := range res {
		res[i] = -3
	}
	if err := c.Release(ctx, lease.ID); err != nil {
		t.Fatal(err)
	}
	served, err := c.Residual(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range served {
		if r != 2 {
			t.Fatalf("switch %d residual %d after full release, want 2", v, r)
		}
	}
}

// --- HTTP API under concurrent clients --------------------------------

// TestHTTPConcurrentClients drives the HTTP control plane from many
// parallel clients on a capacity-1 network and audits the end state:
// live leases must be pairwise disjoint (capacity 1 admits no sharing)
// and the advertised residuals must conserve capacity exactly.
func TestHTTPConcurrentClients(t *testing.T) {
	tr := topology.MustBT(64)
	_, ts := serveScheduler(t, tr, 1)

	const clients = 8
	ctx := context.Background()
	kept := make([][]ClientLease, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(ts.URL, ts.Client())
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 8; i++ {
				loads := load.GenerateSparse(tr, load.PaperUniform(), 4, rng)
				lease, err := c.Place(ctx, loads, 3)
				if err != nil {
					t.Errorf("client %d: place: %v", g, err)
					return
				}
				if rng.Intn(2) == 0 {
					if err := c.Release(ctx, lease.ID); err != nil {
						t.Errorf("client %d: release: %v", g, err)
						return
					}
				} else {
					kept[g] = append(kept[g], *lease)
				}
			}
		}(g)
	}
	wg.Wait()

	// Disjointness: with capacity 1 no switch can appear in two live
	// leases.
	owner := make(map[int]int64)
	live := 0
	for _, ls := range kept {
		for _, l := range ls {
			live++
			for _, v := range l.Blue {
				if prev, taken := owner[v]; taken {
					t.Fatalf("switch %d leased to both tenant %d and %d", v, prev, l.ID)
				}
				owner[v] = l.ID
			}
		}
	}

	// Conservation: the residual the API advertises equals capacity
	// minus exactly the switches held by live leases.
	c := NewClient(ts.URL, ts.Client())
	res, err := c.Residual(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res {
		want := 1
		if _, taken := owner[v]; taken {
			want = 0
		}
		if r != want {
			t.Fatalf("switch %d residual %d, want %d", v, r, want)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants != live {
		t.Fatalf("stats report %d tenants, want %d", st.Tenants, live)
	}
	if st.CapacityUsed != int64(len(owner)) {
		t.Fatalf("capacity used %d, want %d", st.CapacityUsed, len(owner))
	}
}
