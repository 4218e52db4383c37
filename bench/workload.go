package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"soar/internal/ha"
	"soar/internal/load"
	"soar/internal/topology"
)

// treeN is the fabric every workload runs on: BT(2048), 2047 switches,
// 1024 racks.
const treeN = 2048

// poolSize is the number of distinct tenants a workload cycles through.
const poolSize = 1024

// workload is one traffic mix and the daemon configuration it runs
// against. The names are the ledger's keys: later changes are judged by
// (workload, metric) pairs, so they do not change.
type workload struct {
	name string

	capacity   int  // -capacity
	shardLevel int  // -shard, or -1 for a single node
	replicas   int  // -replicas (sharded only)
	checkpoint bool // run with -checkpoint FILE and save while serving

	dense    bool // every rack loaded, else `racks` racks per tenant
	racks    int
	k        int
	standing int // leases held before and throughout the measurement

	refRate float64   // ops/s of the reference rung, Place and Release alternating
	ladder  []float64 // ops/s of the rate ladder
	limitMs float64   // Place p95 limit a ladder rung must meet
}

var workloads = []workload{
	{
		name:     "sparse_churn",
		capacity: 16, shardLevel: -1,
		racks: 8, k: 8, standing: 1000,
		refRate: 500, ladder: []float64{200, 400, 800, 1600, 3200}, limitMs: 20,
	},
	{
		name: "dense_bigk",
		// Sixteen slots a switch would put this workload on a threshold:
		// dense tenants all want the same few levels of the tree, 48 of
		// them fill two levels exactly, and with 50 standing plus up to
		// 16 in flight the closed loop ran at either of two rates a
		// factor of two apart, by seed, depending on which side of that
		// threshold the ledger sat. 128 slots keep every switch available,
		// and the workload about the solver.
		capacity: 128, shardLevel: -1,
		dense: true, k: 32, standing: 50,
		refRate: 150, ladder: []float64{75, 150, 300, 600, 1200}, limitMs: 50,
	},
	{
		name:     "sharded_ha",
		capacity: 16, shardLevel: 3, replicas: 2,
		racks: 8, k: 8, standing: 1000,
		refRate: 500, ladder: []float64{200, 400, 800, 1600, 3200}, limitMs: 20,
	},
	{
		name:     "ckpt_recovery",
		capacity: 64, shardLevel: -1, checkpoint: true,
		racks: 8, k: 8, standing: 5000,
		refRate: 250, ladder: []float64{200, 400, 800, 1600, 3200}, limitMs: 20,
	},
}

// setups is how many times the untraced pass sets the daemon up; the
// median is reported, and the last daemon serves the measurement.
// Loading 5000 leases takes a second and a half, 1000 a third of one.
func (w workload) setups() int {
	if w.standing > 1000 {
		return 3
	}
	return 5
}

// coldStartsEach is how many cold starts are timed at each of the four
// points of the measured span where they are: a start that restores 5000
// leases and saves them again on the way out takes a quarter of a
// second, an empty one with its stop under ten milliseconds.
func (w workload) coldStartsEach() int {
	if w.checkpoint {
		return 2
	}
	return 10
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// daemonArgs is the soar-naasd command line; every flag not named here
// keeps its default. ckptFile is used by checkpointing workloads only.
// The daemon's own periodic save is off there: it shares one temp file
// with POST /v1/checkpoint and refuses a save while another is in
// flight, which would make the benchmark's timed saves fail at random.
// Its re-packer is off there too: it credits a tenant's slots while it
// re-solves it, a checkpoint taken at that moment fails the conservation
// check of Restore, and the daemon saves once more on SIGTERM with the
// re-packer still ticking — so about one stop in a few hundred would
// leave a file the next start refuses (log.Fatal). That is a defect of
// the program under test, not a cost to measure; see README.md §Limits.
func (w workload) daemonArgs(ckptFile string) []string {
	args := []string{"-n", strconv.Itoa(treeN), "-capacity", strconv.Itoa(w.capacity)}
	if w.shardLevel >= 0 {
		args = append(args, "-shard", strconv.Itoa(w.shardLevel), "-replicas", strconv.Itoa(w.replicas))
	}
	if w.checkpoint {
		args = append(args, "-checkpoint", ckptFile, "-checkpoint-every", "0", "-repack-every", "0")
	}
	return args
}

// tenant is one pre-generated request: the load vector and the JSON
// body the daemon receives.
type tenant struct {
	load []int
	body []byte
}

// makePool draws a workload's tenants from the paper's power-law rack
// load (mean 5, support [1,63]). Sharded workloads confine each tenant
// to one pod of the partitioning the daemon will use.
func makePool(t *topology.Tree, w workload, seed int64) ([]tenant, error) {
	rng := rand.New(rand.NewSource(seed))
	dist := load.PaperPowerLaw()
	var part *ha.Partitioning
	if w.shardLevel >= 0 {
		var err error
		if part, err = ha.Partition(t, w.shardLevel); err != nil {
			return nil, err
		}
	}
	pool := make([]tenant, poolSize)
	for i := range pool {
		var l []int
		switch {
		case w.dense:
			l = load.Generate(t, dist, load.LeavesOnly, rng)
		case part != nil:
			pod := part.Shards[rng.Intn(len(part.Shards))].Pod
			l = make([]int, t.N())
			for lv, n := range load.GenerateSparse(pod.Tree, dist, w.racks, rng) {
				l[pod.Global[lv]] = n
			}
		default:
			l = load.GenerateSparse(t, dist, w.racks, rng)
		}
		body, err := json.Marshal(struct {
			Load []int `json:"load"`
			K    int   `json:"k"`
		}{l, w.k})
		if err != nil {
			return nil, err
		}
		pool[i] = tenant{load: l, body: body}
	}
	return pool, nil
}
