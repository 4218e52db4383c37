package ha

import (
	"fmt"

	"soar/internal/sched"
	"soar/internal/wire"
)

// deltaFromEvent converts one committed journal event into its wire
// frame. Blue and load switch ids are shard-local: primary and standby
// deterministically build the same pod tree, so local ids agree. The
// dense load vector travels sparse (LoadV/LoadN pairs).
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
		for v, n := range ev.Load {
			if n > 0 {
				d.LoadV = append(d.LoadV, uint32(v))
				d.LoadN = append(d.LoadN, uint32(n))
			}
		}
	}
	return d, nil
}

// checkDelta validates a received lease-delta frame against a shard
// tree of n switches — a known operation, every blue and load switch in
// range — so a corrupt peer cannot panic the replica at promotion.
func checkDelta(d *wire.LeaseDelta, n int) error {
	if d.Op < wire.DeltaPlace || d.Op > wire.DeltaMigrate {
		return fmt.Errorf("ha: delta op %d unknown", d.Op)
	}
	if len(d.LoadN) != len(d.LoadV) {
		return fmt.Errorf("ha: delta has %d load switches for %d counts", len(d.LoadV), len(d.LoadN))
	}
	for _, v := range d.Blue {
		if int(v) >= n {
			return fmt.Errorf("ha: delta blue switch %d of %d", v, n)
		}
	}
	for _, v := range d.LoadV {
		if int(v) >= n {
			return fmt.Errorf("ha: delta load switch %d of %d", v, n)
		}
	}
	return nil
}

// eventFromDelta converts a lease-delta frame that passed checkDelta
// back into a journal event over a shard tree of n switches, densifying
// the load.
func eventFromDelta(d *wire.LeaseDelta, n int) sched.JournalEvent {
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
		ev.Load = make([]int, n)
		for i, v := range d.LoadV {
			ev.Load[v] = int(d.LoadN[i])
		}
	}
	return ev
}
