package sched

import "fmt"

// unlimited stands in for "no capacity bound" (capacity ≤ 0 at
// construction): large enough to never exhaust, small enough to be a
// portable int (32-bit platforms included) and to keep the int64
// aggregates in Stats from overflowing for any real tree.
const unlimited = 1 << 30

// Ledger is the single source of truth for per-switch lease capacity:
// how many tenants each switch may aggregate for (initial), how many
// slots remain (residual), and — maintained incrementally — the
// availability set Λ = {v : residual[v] > 0} every SOAR solve is
// restricted to.
//
// Before this package, naas.Service and workload.Allocator each kept
// their own residual/availability bookkeeping; both now share this type
// (the Scheduler owns one, the allocator embeds one), so the invariant
// "residual = initial − active leases, Λ = residual > 0" lives in one
// place.
//
// A Ledger does no locking: the owner serializes access (the Scheduler
// charges and credits only from its dispatch goroutine, the allocator is
// single-threaded by contract).
type Ledger struct {
	initial  []int
	residual []int
	avail    []bool
}

// NewLedger creates a ledger for n switches with a uniform capacity
// (capacity ≤ 0 means unlimited).
func NewLedger(n, capacity int) *Ledger {
	if capacity <= 0 {
		capacity = unlimited
	}
	l := &Ledger{
		initial:  make([]int, n),
		residual: make([]int, n),
		avail:    make([]bool, n),
	}
	for v := 0; v < n; v++ {
		l.initial[v] = capacity
		l.residual[v] = capacity
		l.avail[v] = true
	}
	return l
}

// NewLedgerFromCaps creates a ledger with a per-switch capacity vector —
// the heterogeneous-deployment constructor. Unlike NewLedger's uniform
// capacity, entries are literal (as in SetCapacity): caps[v] = 0 makes
// switch v permanently unavailable, negative values clamp to 0. The
// vector is copied.
func NewLedgerFromCaps(caps []int) *Ledger {
	l := &Ledger{
		initial:  make([]int, len(caps)),
		residual: make([]int, len(caps)),
		avail:    make([]bool, len(caps)),
	}
	for v, c := range caps {
		if c < 0 {
			c = 0
		}
		l.initial[v] = c
		l.residual[v] = c
		l.avail[v] = c > 0
	}
	return l
}

// N returns the number of switches tracked.
func (l *Ledger) N() int { return len(l.residual) } //soar:hotpath

// SetCapacity overrides both the initial and the residual capacity of
// one switch; useful for heterogeneous deployments. Unlike the
// constructor's uniform capacity, c here is literal: 0 makes the switch
// permanently unavailable (negative values clamp to 0). It must not be
// called once leases are outstanding on v (the residual is reset).
func (l *Ledger) SetCapacity(v, c int) {
	if c < 0 {
		c = 0
	}
	l.initial[v] = c
	l.residual[v] = c
	l.avail[v] = c > 0
}

// Residual returns the residual capacity of switch v.
func (l *Ledger) Residual(v int) int { return l.residual[v] } //soar:hotpath

// Initial returns the configured capacity of switch v.
func (l *Ledger) Initial(v int) int { return l.initial[v] } //soar:hotpath

// Used returns the number of slots currently leased on switch v.
func (l *Ledger) Used(v int) int { return l.initial[v] - l.residual[v] } //soar:hotpath

// Avail returns the maintained availability vector Λ. The slice is the
// ledger's own storage: callers may read it (engines do, between
// mutations) but must never modify it and must not retain it across a
// Charge/Credit.
func (l *Ledger) Avail() []bool { return l.avail } //soar:hotpath

// AvailCopy returns a defensive copy of Λ.
func (l *Ledger) AvailCopy() []bool {
	return append([]bool(nil), l.avail...)
}

// Charge takes one slot on switch v. It panics if v is exhausted: every
// caller picks v from a solve restricted to Λ, so an exhausted pick is a
// bookkeeping bug, not an input error.
//
//soar:hotpath
func (l *Ledger) Charge(v int) {
	if l.residual[v] <= 0 {
		panic(fmt.Sprintf("sched: charge on exhausted switch %d", v))
	}
	l.residual[v]--
	l.avail[v] = l.residual[v] > 0
}

// Credit returns one slot on switch v. It panics if the slot was never
// taken, which would silently inflate capacity.
//
//soar:hotpath
func (l *Ledger) Credit(v int) {
	if l.residual[v] >= l.initial[v] {
		panic(fmt.Sprintf("sched: credit on full switch %d", v))
	}
	l.residual[v]++
	l.avail[v] = true
}
