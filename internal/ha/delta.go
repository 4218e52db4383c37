package ha

import (
	"fmt"

	"soar/internal/sched"
	"soar/internal/wire"
)

// deltaFromEvent converts one committed journal event into its wire
// frame. Blue and load switch ids are shard-local: primary and standby
// deterministically build the same pod tree, so local ids agree. The
// event's load pairs are the frame's: the event is owned by the journal
// hook, so they move without a copy.
func deltaFromEvent(shard uint32, epoch uint64, ev sched.JournalEvent) (*wire.LeaseDelta, error) {
	d := &wire.LeaseDelta{
		Shard: shard,
		Epoch: epoch,
		Seq:   ev.Seq,
		ID:    uint64(ev.ID),
		K:     uint32(ev.K),
	}
	d.SetPhi(ev.Phi)
	d.SetAllRed(ev.AllRed)
	switch ev.Op {
	case sched.JournalPlace:
		d.Op = wire.DeltaPlace
	case sched.JournalRelease:
		d.Op = wire.DeltaRelease
	case sched.JournalMigrate:
		d.Op = wire.DeltaMigrate
	default:
		return nil, fmt.Errorf("ha: journal op %d has no wire encoding", ev.Op)
	}
	if ev.Op != sched.JournalRelease {
		d.Blue = make([]uint32, len(ev.Blue))
		for i, v := range ev.Blue {
			d.Blue[i] = uint32(v)
		}
	}
	if ev.Op == sched.JournalPlace {
		d.LoadV, d.LoadN = ev.Load.V, ev.Load.N
	}
	return d, nil
}

// checkDelta validates a received lease-delta frame against a shard
// tree of n switches — a known operation, every blue switch in range,
// the load pairs canonical (sched.SparseLoad.Check: the pairs are stored
// as they came, so a duplicate switch, a zero or an overflowing count is
// a resync here, not a wrong record at promotion).
func checkDelta(d *wire.LeaseDelta, n int) error {
	if d.Op < wire.DeltaPlace || d.Op > wire.DeltaMigrate {
		return fmt.Errorf("ha: delta op %d unknown", d.Op)
	}
	for _, v := range d.Blue {
		if int64(v) >= int64(n) {
			return fmt.Errorf("ha: delta blue switch %d of %d", v, n)
		}
	}
	if err := (sched.SparseLoad{V: d.LoadV, N: d.LoadN}).Check(n); err != nil {
		return fmt.Errorf("ha: delta: %w", err)
	}
	return nil
}

// deltaBytes is the encoded size of a lease-delta frame's body — the
// unit a journal is weighed in against the checkpoint it extends, which
// is encoded bytes too.
func deltaBytes(d *wire.LeaseDelta) int {
	const fixed = 4 + 8 + 8 + 1 + 8 + 4 + 8 + 8 + 4 + 4
	return fixed + 4*len(d.Blue) + 8*len(d.LoadV)
}

// eventFromDelta converts a lease-delta frame that passed checkDelta
// back into a journal event. The event borrows the frame's load pairs;
// ApplyEvent copies what it keeps.
func eventFromDelta(d *wire.LeaseDelta) sched.JournalEvent {
	ev := sched.JournalEvent{
		Seq:    d.Seq,
		ID:     int64(d.ID),
		K:      int(d.K),
		Phi:    d.Phi(),
		AllRed: d.AllRed(),
	}
	switch d.Op {
	case wire.DeltaPlace:
		ev.Op = sched.JournalPlace
	case wire.DeltaRelease:
		ev.Op = sched.JournalRelease
	case wire.DeltaMigrate:
		ev.Op = sched.JournalMigrate
	}
	if ev.Op != sched.JournalRelease {
		ev.Blue = make([]int, len(d.Blue))
		for i, v := range d.Blue {
			ev.Blue[i] = int(v)
		}
	}
	if ev.Op == sched.JournalPlace {
		ev.Load = sched.SparseLoad{V: d.LoadV, N: d.LoadN}
	}
	return ev
}
