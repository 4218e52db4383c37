package sched

import (
	"fmt"
	"math"
)

// SparseLoad is a tenant's load in the one form it has after admission:
// (switch, count) pairs with strictly ascending switches and
// 0 < count ≤ MaxInt32 — the canonical-pair rule. The lease table holds
// it, checkpoints and lease deltas carry it (the element types are those
// of wire.CkptTenant.LoadV/LoadN, so encoding is a copy), and journal
// events hand it to standbys. The load is dense only where the solver
// reads it and in the caller-owned Lease.Load.
type SparseLoad struct {
	// V lists the loaded switches, strictly ascending.
	V []uint32
	// N[i] is the number of servers at V[i].
	N []uint32
}

// Check reports whether p is canonical over a tree of n switches. Pairs
// that arrive from outside — a checkpoint, a lease delta — are stored
// verbatim, so this is the door: a duplicate switch, a zero count or a
// count that overflows int on a 32-bit target never reaches the table.
func (p SparseLoad) Check(n int) error {
	if len(p.V) != len(p.N) {
		return fmt.Errorf("%d load switches for %d counts", len(p.V), len(p.N))
	}
	for i, v := range p.V {
		if int64(v) >= int64(n) {
			return fmt.Errorf("load switch %d of %d", v, n)
		}
		if i > 0 && v <= p.V[i-1] {
			return fmt.Errorf("load switch %d after %d, want strictly ascending", v, p.V[i-1])
		}
		if c := p.N[i]; c == 0 || c > math.MaxInt32 {
			return fmt.Errorf("load count %d at switch %d, want 1..%d", c, v, math.MaxInt32)
		}
	}
	return nil
}

// set overwrites p with the non-zero entries of dense, reusing p's
// backing arrays (tenant records are pooled, so steady-state admission
// allocates nothing here).
//
//soar:hotpath
func (p *SparseLoad) set(dense []int) {
	p.V, p.N = p.V[:0], p.N[:0]
	for v, l := range dense {
		if l != 0 {
			p.V = append(p.V, uint32(v))
			p.N = append(p.N, uint32(l))
		}
	}
}

// clone returns a copy sharing no memory with p.
func (p SparseLoad) clone() SparseLoad {
	return SparseLoad{V: append([]uint32(nil), p.V...), N: append([]uint32(nil), p.N...)}
}

// scatter writes p's counts into the all-zero dense vector dst.
func (p SparseLoad) scatter(dst []int) {
	for i, v := range p.V {
		dst[v] = int(p.N[i])
	}
}

// clear zeroes exactly the entries scatter wrote.
func (p SparseLoad) clear(dst []int) {
	for _, v := range p.V {
		dst[v] = 0
	}
}

// dense returns p as a fresh n-vector.
func (p SparseLoad) dense(n int) []int {
	dst := make([]int, n)
	p.scatter(dst)
	return dst
}
