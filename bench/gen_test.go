package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"soar/internal/ha"
	"soar/internal/topology"
)

func TestSameSeedSameInputs(t *testing.T) {
	tree := topology.MustBT(treeN)
	for _, w := range workloads {
		a, err := makePool(tree, w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePool(tree, w, 7)
		c, _ := makePool(tree, w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different tenant pools", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same tenant pool", w.name)
		}
	}
	due := func(seed int64) []time.Duration { return poisson(rand.New(rand.NewSource(seed)), 500, 5*time.Second) }
	if !reflect.DeepEqual(due(7), due(7)) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(due(7), due(8)) {
		t.Error("different seeds gave the same schedule")
	}
}

func TestShardedTenantsStayInOnePod(t *testing.T) {
	tree := topology.MustBT(treeN)
	w, err := findWorkload("sharded_ha")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := makePool(tree, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ha.Partition(tree, w.shardLevel)
	if err != nil {
		t.Fatal(err)
	}
	for i, tn := range pool {
		if _, err := part.ShardOf(tn.load); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
}

func TestPoissonMeanInterArrival(t *testing.T) {
	const rate = 1000.0
	due := poisson(rand.New(rand.NewSource(1)), rate, 30*time.Second)
	if !sort.SliceIsSorted(due, func(i, j int) bool { return due[i] < due[j] }) {
		t.Fatal("schedule is not in time order")
	}
	got := due[len(due)-1].Seconds() / float64(len(due))
	if math.Abs(got*rate-1) > 0.02 {
		t.Errorf("mean inter-arrival %.6f s over %d arrivals, want within 2 %% of %.6f s", got, len(due), 1/rate)
	}
}

// A transport that stalls must charge the stall to the ops queued
// behind it: their clocks started when they were due, not when a worker
// got round to them.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	ts := runOpen(due, 1, func(_, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, tm := range ts[1:] {
		if want := stall - due[i+1]; tm.latency() < want {
			t.Errorf("op %d queued behind a %v stall was charged %v, want ≥ %v", i+1, stall, tm.latency(), want)
		}
		if tm.lateness() < stall-due[i+1] {
			t.Errorf("op %d reports lateness %v, want ≥ %v", i+1, tm.lateness(), stall-due[i+1])
		}
	}
	if ts[0].lateness() > 5*time.Millisecond {
		t.Errorf("first op sent %v late on an idle generator", ts[0].lateness())
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i)
	}
	if got, err := percentile(v, 99); err != nil || got != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989 with 10 samples beyond", got, err)
	}
	if _, err := percentile(v[:999], 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was not refused")
	}
	if _, err := percentile(v[:100], 99); err == nil {
		t.Error("p99 of 100 samples was not refused")
	}
	if _, err := percentile(v[:21], 50); err != nil {
		t.Errorf("p50 of 21 samples refused: %v", err)
	}
}

// A Poisson schedule draws a few per cent fewer arrivals than rate × d on
// some seeds; the window count must leave every window its p95.
func TestWindowCountLeavesP95ItsSamples(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []int{20, 24, 30, 60} {
			d := time.Duration(float64(seconds) * openShare / cycles * float64(time.Second))
			n := windowCount(w.refRate, d)
			// Ops alternate Place and Release, so a window's m expected
			// Places have a standard deviation of √(m/2); five of them
			// below is once in millions of windows.
			m := w.refRate * d.Seconds() / float64(n) / 2
			places := int(m - 5*math.Sqrt(m/2))
			if _, err := percentile(make([]float64, places), 95); err != nil {
				t.Errorf("%s, %d s: %d windows of %d places: %v", w.name, seconds, n, places, err)
			}
		}
	}
	if n := windowCount(10, time.Second); n != 1 {
		t.Errorf("a stretch too short for one full window is cut into %d", n)
	}
}

func TestLadderStopsAtFirstFailingRung(t *testing.T) {
	var ran []float64
	rungs, best, err := climb([]float64{250, 500, 1000, 2000, 4000}, func(rate float64) (rung, error) {
		ran = append(ran, rate)
		return rung{Rate: rate, Pass: rate < 1000}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{250, 500, 1000}; !reflect.DeepEqual(ran, want) {
		t.Errorf("ran rungs %v, want %v", ran, want)
	}
	if best != 500 || len(rungs) != 3 {
		t.Errorf("best %v over %d rungs, want 500 over 3", best, len(rungs))
	}
	if _, best, _ := climb([]float64{250}, func(float64) (rung, error) { return rung{}, nil }); best != 0 {
		t.Errorf("ladder whose first rung fails reports %v, want 0", best)
	}
}

// A rung passes on its p95, its failures and its backlog, each alone
// able to fail it.
func TestRungPassRule(t *testing.T) {
	mk := func(n int, lat time.Duration) []timing {
		ts := make([]timing, n)
		for i := range ts {
			due := time.Duration(i) * time.Millisecond
			ts[i] = timing{due: due, sent: due, done: due + lat, ok: true}
		}
		return ts
	}
	check := func(name string, ts []timing, want bool) {
		t.Helper()
		r, err := summarize("ladder", 1000, ts, isPlace, 20)
		if err != nil {
			t.Fatal(err)
		}
		if r.Pass != want {
			t.Errorf("%s: pass=%v, want %v (%+v)", name, r.Pass, want, r)
		}
	}
	check("fast", mk(1000, 2*time.Millisecond), true)
	check("over the limit", mk(1000, 30*time.Millisecond), false)
	failed := mk(1000, 2*time.Millisecond)
	failed[10].ok = false
	check("one failed op", failed, false)
	backlog := mk(1000, 2*time.Millisecond)
	backlog[999].done = backlog[999].due + 2*time.Second
	check("backlog outlives the schedule", backlog, false)
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// BENCHMARK.json is the contract later changes are judged by; the
// program must report exactly the names it lists.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name
		}
		sort.Strings(out)
		return out
	}
	sorted := func(s []string) []string {
		out := append([]string(nil), s...)
		sort.Strings(out)
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(b.Workloads), sorted(ws)},
		{"end_to_end", names(b.EndToEnd), sorted(endToEndNames)},
		{"per_layer", names(b.PerLayer), sorted(layerNames)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: BENCHMARK.json lists %v, the program reports %v", c.what, c.got, c.want)
		}
	}
}
