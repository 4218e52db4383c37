package soar

import (
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	// The doc-comment quickstart, verified end to end.
	tr := CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	res := Solve(tr, loads, 2)
	if res.Cost != 20 {
		t.Fatalf("Solve φ=%v, want 20", res.Cost)
	}
	if got := Utilization(tr, loads, res.Blue); got != 20 {
		t.Fatalf("Utilization=%v, want 20", got)
	}
}

func TestFacadeIncremental(t *testing.T) {
	// The README's online snippet: patch the engine, re-solve, and agree
	// with a from-scratch solve on the updated instance.
	tr := CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	eng := NewIncremental(tr, loads, nil, 2)
	if res := eng.Solve(); res.Cost != 20 {
		t.Fatalf("incremental φ=%v, want 20", res.Cost)
	}
	eng.UpdateLoad(4, -3)
	eng.SetAvail(2, false)
	got := eng.Solve()
	want := SolveRestricted(tr, []int{0, 0, 0, 2, 3, 5, 4},
		[]bool{true, true, false, true, true, true, true}, 2)
	if got.Cost != want.Cost {
		t.Fatalf("patched incremental φ=%v, from-scratch φ=%v", got.Cost, want.Cost)
	}
}

func TestFacadeBT(t *testing.T) {
	tr, err := BT(64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 63 {
		t.Fatalf("BT(64) has %d switches", tr.N())
	}
	if _, err := BT(63); err == nil {
		t.Fatal("BT(63) should fail")
	}
}

func TestFacadeNewTree(t *testing.T) {
	tr, err := NewTree([]int{NoParent, 0, 0}, []float64{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != 0 || tr.N() != 3 {
		t.Fatalf("root=%d n=%d", tr.Root(), tr.N())
	}
	if _, err := NewTree([]int{0}, []float64{1}); err == nil {
		t.Fatal("self-rooted tree should fail")
	}
}

func TestFacadeLoadsDeterministic(t *testing.T) {
	tr := CompleteBinaryTree(5)
	a := PowerLawLoads(tr, 9)
	b := PowerLawLoads(tr, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PowerLawLoads not deterministic by seed")
		}
	}
	u := UniformLoads(tr, 9)
	for v := 0; v < tr.N(); v++ {
		if tr.IsLeaf(v) && (u[v] < 4 || u[v] > 6) {
			t.Fatalf("uniform load %d outside {4,5,6}", u[v])
		}
		if !tr.IsLeaf(v) && u[v] != 0 {
			t.Fatalf("internal switch %d has load %d", v, u[v])
		}
	}
}

func TestFacadeStrategies(t *testing.T) {
	tr := CompleteBinaryTree(4)
	loads := PowerLawLoads(tr, 3)
	opt := Solve(tr, loads, 4).Cost
	if s := SOAR(); s.Name() != "soar" {
		t.Fatalf("SOAR().Name() = %q", s.Name())
	}
	for _, s := range Baselines() {
		blue := s.Place(tr, loads, nil, 4)
		if phi := Utilization(tr, loads, blue); phi < opt-1e-9 {
			t.Fatalf("%s beat the optimum: %v < %v", s.Name(), phi, opt)
		}
	}
}

func TestFacadeRestricted(t *testing.T) {
	tr := CompleteBinaryTree(4)
	loads := UniformLoads(tr, 5)
	avail := make([]bool, tr.N())
	for v := range avail {
		avail[v] = v%2 == 0
	}
	res := SolveRestricted(tr, loads, avail, 3)
	for v, b := range res.Blue {
		if b && !avail[v] {
			t.Fatalf("unavailable switch %d selected", v)
		}
	}
	if all := Solve(tr, loads, 3); res.Cost < all.Cost {
		t.Fatalf("restricted φ=%v beats the unrestricted optimum %v", res.Cost, all.Cost)
	}
}

func TestFacadeScaleFree(t *testing.T) {
	tr := ScaleFreeTree(100, 1)
	if tr.N() != 100 {
		t.Fatalf("N=%d", tr.N())
	}
	again := ScaleFreeTree(100, 1)
	for v := 0; v < tr.N(); v++ {
		if tr.Parent(v) != again.Parent(v) {
			t.Fatal("ScaleFreeTree not deterministic by seed")
		}
	}
}

func TestFacadeMemo(t *testing.T) {
	tr := CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	want := Solve(tr, loads, 2)
	m := NewMemo(tr)
	for rep := 0; rep < 2; rep++ { // cold, then warm
		got := SolveMemo(m, loads, 2)
		if got.Cost != want.Cost {
			t.Fatalf("memo φ=%v, want %v", got.Cost, want.Cost)
		}
		for v := range want.Blue {
			if got.Blue[v] != want.Blue[v] {
				t.Fatalf("memo placement differs at switch %d", v)
			}
		}
	}
	caps := CapsTiered(tr, 1, 1, 2)
	if got, want := SolveMemoCaps(m, loads, caps, 2), SolveCaps(tr, loads, caps, 2); got.Cost != want.Cost {
		t.Fatalf("memo caps φ=%v, want %v", got.Cost, want.Cost)
	}
}

func TestFacadeMessageCounts(t *testing.T) {
	tr := CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	counts := MessageCounts(tr, loads, make([]bool, tr.N()))
	if counts[tr.Root()] != 17 {
		t.Fatalf("root edge carries %d, want 17", counts[tr.Root()])
	}
}
