package ha

import (
	"fmt"
	"net"
	"time"

	"soar/internal/obs"
	"soar/internal/sched"
	"soar/internal/topology"
)

// shardIDBits is where the shard index lives in a global lease id:
// the low 48 bits are the shard-local id, the high bits the shard.
const shardIDBits = 48

// GlobalID combines a shard index and a shard-local lease id into the
// cluster-wide id handed to clients.
func GlobalID(shard int, local int64) int64 {
	return int64(shard)<<shardIDBits | local
}

// SplitID is the inverse of GlobalID.
func SplitID(id int64) (shard int, local int64) {
	return int(id >> shardIDBits), id & (1<<shardIDBits - 1)
}

// Options tunes a Cluster. Heartbeat, MissBudget and Replicas have
// working defaults; Sched carries the per-shard scheduler tuning
// (capacity, batching, re-packing) — its Journal and Fence fields are
// owned by the cluster and must be left nil.
type Options struct {
	// Level is the depth pod roots live at (root = 0); one shard per
	// switch at this level.
	Level int
	// Replicas is the number of warm standbys per shard (default 1).
	Replicas int
	// Heartbeat is the primary's heartbeat period (default 250ms).
	Heartbeat time.Duration
	// MissBudget is the number of missed heartbeats before a standby
	// declares the primary dead (default 4).
	MissBudget int
	// RouteTimeout bounds how long routing retries across a failover
	// before giving up with ErrNoPrimary (default 12×Heartbeat×MissBudget).
	RouteTimeout time.Duration
	// Sched is the base scheduler configuration applied to every shard.
	Sched sched.Config
	// Conn wraps each end of a replication stream (an in-process pipe)
	// for the replica node owning it; nil leaves both bare, an error
	// refuses the attach. chaos.Injector.Conn plugs in here.
	Conn func(node int, c net.Conn) (net.Conn, error)
	// Logf receives membership and failover events; nil discards them.
	Logf func(format string, args ...any)
}

// ShardStatus is one shard's membership snapshot.
type ShardStatus struct {
	// Index is the shard number; Root the global id of its pod root.
	Index, Root int
	// Epoch is the shard's current fencing epoch.
	Epoch uint64
	// PrimaryNode is the serving replica's node id (-1 from a crash or
	// a promotion's start until a promotion lands).
	PrimaryNode int
	// Standbys is the number of warm standbys attached or attaching.
	Standbys int
	// Seq is the primary's journal sequence; Tenants its live leases
	// (both 0 while there is no primary).
	Seq     uint64
	Tenants int
}

// Cluster is the replicated, sharded control plane: a Partitioning of
// the fabric with one primary scheduler and N warm standbys per pod,
// and a router that translates between global and shard-local ids.
type Cluster struct {
	part   *Partitioning
	opts   Options
	met    *Metrics
	reg    *obs.Registry
	shards []*shard
}

// NewCluster partitions t at opts.Level and starts every shard's
// primary and standbys. Close releases everything.
func NewCluster(t *topology.Tree, opts Options) (*Cluster, error) {
	part, err := Partition(t, opts.Level)
	if err != nil {
		return nil, err
	}
	if len(part.Shards) > 1<<15 {
		return nil, fmt.Errorf("ha: %d shards exceed the id space", len(part.Shards))
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 250 * time.Millisecond
	}
	if opts.MissBudget <= 0 {
		opts.MissBudget = 4
	}
	if opts.RouteTimeout <= 0 {
		opts.RouteTimeout = 12 * time.Duration(opts.MissBudget) * opts.Heartbeat
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	reg := obs.NewRegistry()
	c := &Cluster{part: part, opts: opts, reg: reg, met: newMetrics(reg)}
	for _, spec := range part.Shards {
		sh, err := newShard(spec, &c.opts, c.met, c.reg, opts.Logf)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// Partitioning exposes the fabric split (read-only).
func (c *Cluster) Partitioning() *Partitioning { return c.part }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Metrics returns the cluster's soar_ha_* instrumentation.
func (c *Cluster) Metrics() *Metrics { return c.met }

// Registry returns the cluster metrics registry.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// ShardScheduler returns shard s's serving scheduler, or nil mid
// failover: from CrashPrimary until a standby is promoted. Its
// Registry holds the shard's scheduler families (soar_sched_*,
// soar_ckpt_*, …). Commits issued directly on a returned handle after
// a subsequent failover are fenced — tests use exactly that to prove a
// stale primary cannot diverge the cluster.
func (c *Cluster) ShardScheduler(s int) *sched.Scheduler {
	if s < 0 || s >= len(c.shards) {
		return nil
	}
	return c.shards[s].scheduler()
}

// Place routes one admission and returns its lease; see PlaceInto.
func (c *Cluster) Place(load []int, k int) (*sched.Lease, error) {
	lease := new(sched.Lease)
	if err := c.PlaceInto(load, k, lease); err != nil {
		return nil, err
	}
	return lease, nil
}

// PlaceInto routes one admission into the caller-owned lease: the
// global dense load vector resolves to a shard (ErrCrossShard if it
// spans pods or touches spine), the shard solves it over its pod tree,
// and the lease is rewritten in place to global switch ids with a
// cluster-wide lease id. Blue and Load are reused if they have
// capacity, as with sched.Scheduler.PlaceInto.
func (c *Cluster) PlaceInto(load []int, k int, lease *sched.Lease) error {
	si, err := c.part.ShardOf(load)
	if err != nil {
		return err
	}
	if err := c.shards[si].place(c.part.Localize(si, load), k, lease); err != nil {
		return err
	}
	c.globalize(si, lease)
	// Every positive entry of load lies in the shard's pod (ShardOf),
	// so the global load is load itself with Localize's zeroing of
	// non-positive entries.
	lease.Load = lease.Load[:0]
	for _, n := range load {
		lease.Load = append(lease.Load, max(n, 0))
	}
	return nil
}

// Release frees a lease by its global id. sched.ErrNotFound means the
// shard does not know the lease — possibly admitted by a primary that
// died before replicating it (at-most-once admission under failover).
func (c *Cluster) Release(id int64) error {
	si, local := SplitID(id)
	if si < 0 || si >= len(c.shards) {
		return fmt.Errorf("ha: lease %d names shard %d of %d: %w", id, si, len(c.shards), sched.ErrNotFound)
	}
	return c.shards[si].release(local)
}

// Lookup returns a lease by its global id, re-mapped to global switch
// ids.
func (c *Cluster) Lookup(id int64) (*sched.Lease, error) {
	si, local := SplitID(id)
	if si < 0 || si >= len(c.shards) {
		return nil, fmt.Errorf("ha: lease %d names shard %d of %d: %w", id, si, len(c.shards), sched.ErrNotFound)
	}
	lease, err := c.shards[si].lookup(local)
	if err != nil {
		return nil, err
	}
	c.globalize(si, lease)
	if lease.Load != nil {
		pod := c.part.Shards[si].Pod
		global := make([]int, c.part.Tree.N())
		for lv, n := range lease.Load {
			if n > 0 {
				global[pod.Global[lv]] = n
			}
		}
		lease.Load = global
	}
	return lease, nil
}

// globalize re-maps a shard-local lease's id and switch ids, in place,
// to the cluster-wide view. The load vector is the caller's: its
// global form needs a vector of the fabric's length.
func (c *Cluster) globalize(si int, lease *sched.Lease) {
	pod := c.part.Shards[si].Pod
	lease.ID = GlobalID(si, lease.ID)
	for i, lv := range lease.Blue {
		lease.Blue[i] = pod.Global[lv]
	}
}

// LeaseIDs inventories every live lease across serving shards as
// global ids: what a drain loop must release. Shards mid-failover
// contribute nothing.
func (c *Cluster) LeaseIDs() []int64 {
	var out []int64
	for i, sh := range c.shards {
		sch := sh.scheduler()
		if sch == nil {
			continue
		}
		for _, id := range sch.LeaseIDs() {
			out = append(out, GlobalID(i, id))
		}
	}
	return out
}

// CrashPrimary kills shard s's serving primary as a process death
// would (future commits fence, its network closes) and returns the
// crashed scheduler handle, or nil if the shard had none. The shard's
// standbys fail over on their own.
func (c *Cluster) CrashPrimary(s int) *sched.Scheduler {
	if s < 0 || s >= len(c.shards) {
		return nil
	}
	return c.shards[s].crashPrimary()
}

// Status snapshots every shard's membership.
func (c *Cluster) Status() []ShardStatus {
	out := make([]ShardStatus, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.status()
	}
	return out
}

// Audit proves conservation from first principles on every serving
// scheduler; shards mid-failover are reported, not skipped silently.
func (c *Cluster) Audit() error {
	for i, sh := range c.shards {
		sch := sh.scheduler()
		if sch == nil {
			return fmt.Errorf("ha: shard %d: no serving scheduler to audit", i)
		}
		if err := sch.Audit(); err != nil {
			return fmt.Errorf("ha: shard %d: %w", i, err)
		}
	}
	return nil
}

// Close stops every shard: standbys halt, primaries close, schedulers
// (serving and retired) shut down.
func (c *Cluster) Close() {
	for _, sh := range c.shards {
		sh.close()
	}
}
