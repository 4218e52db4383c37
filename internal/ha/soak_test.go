package ha

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"soar/internal/chaos"
	"soar/internal/sched"
	"soar/internal/topology"
)

// TestFailoverSoak is the replicated control plane's capstone: three
// shards with two warm standbys each, churners placing and releasing
// across all of them, while each round kills a rotating shard's
// primary mid-batch — alternating between an in-process crash
// (CrashPrimary: commits start failing, network closes) and a chaos
// network kill (the node's connections sever with RSTs and its dials
// and accepts die until healed). After every round it asserts:
//
//   - recovery: the shard promotes a standby (epoch bump, serving
//     primary) within a small multiple of the heartbeat budget;
//   - fencing: the deposed primary's scheduler handle still accepts
//     calls but every commit returns ErrFenced, and the
//     soar_ha_epoch_rejections_total counter advances — a stale
//     primary cannot diverge the cluster (the acceptance criterion);
//   - no double-grant: no Place ever returns a lease id another
//     churner still holds;
//   - conservation: after draining every lease (including any
//     resurrected by a lost release delta), every shard audits clean
//     with zero tenants and zero capacity in use;
//   - replica refill: the dead slot rejoins as a standby once healed.
//
// Every promotion serves the table a standby kept current delta by
// delta: the round line reports how many it had applied live, and a
// promotion of a table that applied none fails the soak.
//
// SOAR_SOAK_ROUNDS overrides the round count; SOAR_AUDIT_LOG appends
// one line per round to the named file (the CI job uploads it).
func TestFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("failover soak skipped in -short")
	}

	rounds := 4
	if v := os.Getenv("SOAR_SOAK_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("SOAR_SOAK_ROUNDS=%q invalid", v)
		}
		rounds = n
	}
	var auditLog *os.File
	if path := os.Getenv("SOAR_AUDIT_LOG"); path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatalf("SOAR_AUDIT_LOG: %v", err)
		}
		auditLog = f
		defer f.Close()
	}
	logRound := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		t.Log(line)
		if auditLog != nil {
			fmt.Fprintln(auditLog, line)
		}
	}

	const (
		heartbeat  = 50 * time.Millisecond
		missBudget = 4
		replicas   = 2
	)
	budget := time.Duration(missBudget) * heartbeat
	recoveryBudget := 10 * budget // 2s: generous under -race, still tight

	inj := chaos.New(chaos.Config{
		Seed:  42,
		Delay: 0.02, // light jitter on every stream, never fatal
	})
	tr := topology.CompleteKAry(3, 4)
	cl, err := NewCluster(tr, Options{
		Level:        1,
		Replicas:     replicas,
		Heartbeat:    heartbeat,
		MissBudget:   missBudget,
		RouteTimeout: 2 * recoveryBudget,
		Sched:        sched.Config{Capacity: 4},
		Dial:         inj.Dial,
		WrapListener: inj.WrapListener,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Partitioning()
	nShards := cl.Shards()

	// held maps global lease id → owner tag; the double-grant check.
	var heldMu sync.Mutex
	held := make(map[int64]string)

	benign := func(err error) bool {
		return errors.Is(err, sched.ErrNotFound) || errors.Is(err, ErrNoPrimary)
	}

	// churn runs place/release traffic confined to one shard until
	// stop closes. Fatal protocol violations land in errc.
	churn := func(shard int, tag string, seed int64, stop <-chan struct{}, errc chan<- error) {
		rng := rand.New(rand.NewSource(seed))
		pod := p.Shards[shard].Pod
		leaves := pod.Tree.Leaves()
		var mine []int64
		defer func() {
			for _, id := range mine {
				if err := cl.Release(id); err != nil && !benign(err) {
					errc <- fmt.Errorf("%s: drain release: %w", tag, err)
					return
				}
				heldMu.Lock()
				delete(held, id)
				heldMu.Unlock()
			}
		}()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Pace the churn: the point is sustained concurrent traffic
			// across the kill, not journal rates no deployment sees.
			time.Sleep(time.Duration(500+rng.Intn(1000)) * time.Microsecond)
			if len(mine) > 6 || (len(mine) > 0 && rng.Intn(3) == 0) {
				i := rng.Intn(len(mine))
				id := mine[i]
				mine = append(mine[:i], mine[i+1:]...)
				if err := cl.Release(id); err != nil && !benign(err) {
					errc <- fmt.Errorf("%s: release %d: %w", tag, id, err)
					return
				}
				heldMu.Lock()
				delete(held, id)
				heldMu.Unlock()
				continue
			}
			load := make([]int, tr.N())
			for _, lv := range leaves {
				if rng.Intn(2) == 0 {
					load[pod.Global[lv]] = 1 + rng.Intn(2)
				}
			}
			gv := pod.Global[leaves[rng.Intn(len(leaves))]]
			load[gv] = 1 // never all-zero
			lease, err := cl.Place(load, 1+rng.Intn(3))
			if err != nil {
				if benign(err) {
					continue
				}
				errc <- fmt.Errorf("%s: place: %w", tag, err)
				return
			}
			heldMu.Lock()
			if owner, dup := held[lease.ID]; dup {
				heldMu.Unlock()
				errc <- fmt.Errorf("%s: double-grant: lease %d already held by %s", tag, lease.ID, owner)
				return
			}
			held[lease.ID] = tag
			heldMu.Unlock()
			mine = append(mine, lease.ID)
		}
	}

	for round := 0; round < rounds; round++ {
		victim := round % nShards
		useKill := round%2 == 1
		mode := "crash"
		if useKill {
			mode = "netkill"
		}

		stop := make(chan struct{})
		errc := make(chan error, 2*nShards)
		var wg sync.WaitGroup
		for s := 0; s < nShards; s++ {
			for c := 0; c < 2; c++ {
				wg.Add(1)
				tag := fmt.Sprintf("r%d-s%d-c%d", round, s, c)
				seed := int64(round*100 + s*10 + c)
				go func(shard int, tag string, seed int64) {
					defer wg.Done()
					churn(shard, tag, seed, stop, errc)
				}(s, tag, seed)
			}
		}

		// Let the batch build, then kill the victim's primary mid-churn.
		time.Sleep(4 * heartbeat)
		preStatus := cl.Status()[victim]
		staleSch := cl.ShardScheduler(victim)
		if staleSch == nil {
			t.Fatalf("round %d: victim shard %d has no primary before the kill", round, victim)
		}
		killAt := time.Now()
		if useKill {
			inj.KillNode(preStatus.PrimaryNode)
		} else {
			if cl.CrashPrimary(victim) != staleSch {
				t.Fatalf("round %d: CrashPrimary returned a different scheduler", round)
			}
		}

		// Recovery: epoch bump + serving primary within the budget.
		var recovered time.Duration
		deadline := time.Now().Add(recoveryBudget)
		for {
			st := cl.Status()[victim]
			if st.Epoch > preStatus.Epoch && st.PrimaryNode >= 0 {
				recovered = time.Since(killAt)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d (%s): shard %d did not recover within %v (epoch %d→%d)",
					round, mode, victim, recoveryBudget, preStatus.Epoch, st.Epoch)
			}
			time.Sleep(heartbeat / 2)
		}

		// Fencing: the deposed primary still answers calls, but every
		// commit is rejected and counted. (On crash rounds the crashed
		// flag fences without counting, so assert the counter only on
		// network kills, where the process is "alive but partitioned".)
		rejBefore := cl.Metrics().EpochRejections()
		staleLoad := p.Localize(victim, podLoad(p, victim))
		if _, err := staleSch.Place(staleLoad, 2); !errors.Is(err, ErrFenced) {
			t.Fatalf("round %d (%s): stale primary Place returned %v, want ErrFenced", round, mode, err)
		}
		if err := staleSch.Release(1); !errors.Is(err, ErrFenced) && !errors.Is(err, sched.ErrNotFound) {
			t.Fatalf("round %d (%s): stale primary Release returned %v, want ErrFenced or ErrNotFound", round, mode, err)
		}
		rejAfter := cl.Metrics().EpochRejections()
		if useKill && rejAfter <= rejBefore {
			t.Fatalf("round %d: epoch rejection counter stuck at %d despite fenced commit", round, rejBefore)
		}

		// Keep churning briefly against the promoted primary, then stop.
		time.Sleep(4 * heartbeat)
		close(stop)
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatalf("round %d (%s): churner failed: %v", round, mode, err)
		default:
		}

		if useKill {
			inj.HealNode(preStatus.PrimaryNode)
		}

		// Conservation: drain every surviving lease — including any a
		// lost release delta resurrected — then audit to zero.
		for _, id := range cl.LeaseIDs() {
			if err := cl.Release(id); err != nil && !benign(err) {
				t.Fatalf("round %d: sweep release %d: %v", round, id, err)
			}
		}
		if err := cl.Audit(); err != nil {
			t.Fatalf("round %d (%s): audit: %v", round, mode, err)
		}
		for _, st := range cl.Status() {
			if st.Tenants != 0 {
				t.Fatalf("round %d (%s): shard %d holds %d tenants after drain", round, mode, st.Index, st.Tenants)
			}
		}
		heldMu.Lock()
		if len(held) != 0 {
			t.Fatalf("round %d: %d leases still marked held after drain", round, len(held))
		}
		heldMu.Unlock()

		// Replica refill: the dead slot rejoins as a standby.
		refillDeadline := time.Now().Add(2 * recoveryBudget)
		for cl.Status()[victim].Standbys < replicas {
			if time.Now().After(refillDeadline) {
				t.Fatalf("round %d (%s): shard %d standbys stuck at %d, want %d",
					round, mode, victim, cl.Status()[victim].Standbys, replicas)
			}
			time.Sleep(heartbeat)
		}

		st := cl.Status()[victim]
		applied := cl.shards[victim].cur.Load().applied
		logRound("round %d: mode=%s shard=%d recovered=%s epoch=%d epoch_rejections=%d failovers=%d applied=%d",
			round, mode, victim, recovered.Round(time.Millisecond), st.Epoch,
			cl.Metrics().EpochRejections(), cl.Metrics().Failovers(), applied)
		if applied == 0 {
			t.Fatalf("round %d (%s): shard %d promoted a table that had applied no delta: the soak never crossed the path it is here to cover", round, mode, victim)
		}
	}

	if got := cl.Metrics().Failovers(); got < uint64(rounds) {
		t.Fatalf("observed %d failovers over %d rounds", got, rounds)
	}
}
