package core

import (
	"testing"

	"soar/internal/paper"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// buildStates runs the gather phase of SOAR's message-passing protocol
// (paper Sec. 4.2) through the NodeState engine, bottom-up, as a remote
// deployment would: every switch builds its state from the X tables its
// children shipped. avail == nil means every switch may be blue.
func buildStates(t *testing.T, tr *topology.Tree, loads []int, avail []bool, k int) []*NodeState {
	t.Helper()
	subLoad := tr.SubtreeLoads(loads)
	states := make([]*NodeState, tr.N())
	for _, v := range tr.PostOrder() {
		childX := make([][]float64, 0, tr.NumChildren(v))
		for _, c := range tr.Children(v) {
			childX = append(childX, states[c].XTable())
		}
		ns, err := NewNodeStateCaps(tr, v, loads[v], subLoad[v] > 0, capAt(avail, nil, v), k, childX)
		if err != nil {
			t.Fatalf("NewNodeStateCaps(%d): %v", v, err)
		}
		states[v] = ns
	}
	return states
}

// solveProtocol runs both protocol phases over NodeState: the gather of
// buildStates, then the destination injects (k, ℓ=1) at the root and
// every switch answers its parent's assignment with Decide.
func solveProtocol(t *testing.T, tr *topology.Tree, loads []int, avail []bool, k int) Result {
	t.Helper()
	states := buildStates(t, tr, loads, avail, k)
	blue := make([]bool, tr.N())
	type frame struct{ v, i, l int }
	stack := []frame{{tr.Root(), k, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		isBlue, childBudget, childL, err := states[f.v].Decide(f.i, f.l)
		if err != nil {
			t.Fatalf("Decide(%d): %v", f.v, err)
		}
		blue[f.v] = isBlue
		for m, c := range tr.Children(f.v) {
			stack = append(stack, frame{c, childBudget[m], childL})
		}
	}
	return Result{Blue: blue, Cost: states[tr.Root()].Optimum()}
}

func TestNodeStateReproducesPaperExample(t *testing.T) {
	tr, loads := paper.Figure2()
	res := solveProtocol(t, tr, loads, nil, 2)
	if res.Cost != 20 {
		t.Fatalf("root optimum %v, want 20", res.Cost)
	}
	if phi := reduce.Utilization(tr, loads, res.Blue); phi != 20 {
		t.Fatalf("protocol placement costs %v, want 20", phi)
	}
}

func TestNodeStateValidatesChildTables(t *testing.T) {
	tr, loads := paper.Figure2()
	// Wrong number of child tables.
	if _, err := NewNodeStateCaps(tr, 1, loads[1], true, 1, 2, nil); err == nil {
		t.Fatal("missing child tables accepted")
	}
	// Wrong table size.
	bad := [][]float64{make([]float64, 3), make([]float64, 3)}
	if _, err := NewNodeStateCaps(tr, 1, loads[1], true, 1, 2, bad); err == nil {
		t.Fatal("mis-sized child tables accepted")
	}
}

func TestNodeStateDecideValidatesInput(t *testing.T) {
	tr, loads := paper.Figure2()
	states := buildStates(t, tr, loads, nil, 2)
	root := states[tr.Root()]
	if _, _, _, err := root.Decide(-1, 1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, _, _, err := root.Decide(5, 1); err == nil {
		t.Fatal("budget beyond k accepted")
	}
	if _, _, _, err := root.Decide(2, 9); err == nil {
		t.Fatal("ℓ beyond depth accepted")
	}
}

func TestStrategyAdapter(t *testing.T) {
	tr, loads := paper.Figure2()
	s := Strategy{}
	if s.Name() != "soar" {
		t.Fatalf("Name() = %q", s.Name())
	}
	blue := s.Place(tr, loads, nil, 2)
	if phi := reduce.Utilization(tr, loads, blue); phi != 20 {
		t.Fatalf("adapter placement costs %v, want 20", phi)
	}
}

func TestTablesAccessors(t *testing.T) {
	tr, loads := paper.Figure2()
	tb := Gather(tr, loads, nil, 2)
	if tb.K() != 2 {
		t.Fatalf("K() = %d", tb.K())
	}
	if tb.Tree() != tr {
		t.Fatal("Tree() did not return the input tree")
	}
}
