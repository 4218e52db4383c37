// Command bench is the end-to-end benchmark of the NaaS control plane.
// It builds the real soar-naasd binary, spawns it, and drives it over
// loopback HTTP with an open-loop generator; a second, traced pass
// prices each module in process. See README.md in this directory.
//
//	go run ./bench -seed 1                       # every workload, both passes, rate ladder
//	go run ./bench -workload sparse_churn -trace 0
//	go run ./bench -compare A.json B.json
//
// The benchmark driver runs `go run ./bench --workload W --seed N
// --seconds S --trace 0|1` and reads the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"soar/internal/topology"
)

func main() { os.Exit(run()) }

func run() int {
	seed := flag.Int64("seed", 1, "seed of the tenant pools and the arrival schedules")
	out := flag.String("out", outDir+"/result.json", "result file; passes are appended to the runs it already holds")
	only := flag.String("workload", "", "run one workload (default: all four)")
	trace := flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); default: both, and the rate ladder")
	seconds := flag.Int("seconds", 24, "measured seconds per pass")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	// No exit path may leave a daemon behind: signals kill the children
	// here, returns and panics kill them in the deferred call.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	defer killChildren()

	ws := workloads
	if *only != "" {
		w, err := findWorkload(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ws = []workload{w}
	}
	bin, built, err := buildDaemon()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	e := env{
		bin: bin, tree: topology.MustBT(treeN), seed: *seed, seconds: *seconds,
		// The generator shares the machine with the daemon: more
		// workers than cores would measure the generator.
		workers: min(runtime.NumCPU(), 4),
	}
	meta := meta{Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Workers: e.workers, BuildS: built.Seconds()}
	fmt.Printf("bench: commit %s, %s, nproc %d, %d workers, seed %d, built soar-naasd in %.2f s\n",
		meta.Commit, meta.GoVersion, meta.NProc, e.workers, e.seed, meta.BuildS)

	ok := true
	for _, w := range ws {
		var passes []*pass
		if *trace != 1 {
			p, err := runUntraced(e, w, *trace < 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			passes = append(passes, p)
		}
		if *trace != 0 {
			p, err := runTraced(e, w)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			passes = append(passes, p)
		}
		for _, p := range passes {
			want := endToEndNames
			if p.Traced {
				want = layerNames
			}
			if err := sameNames(p.Metrics, want); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printPass(p)
			if err := appendRun(*out, meta, p); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			ok = ok && p.Correct
			// The driver reads the last line: one JSON object per pass.
			line, _ := json.Marshal(struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}{p.Correct, p.Attempted, p.Failed, stripN(p.Metrics)})
			fmt.Printf("%s\n", line)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// stripN drops the sample counts: the driver's line carries value and
// unit only.
func stripN(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		out[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	return out
}

func sameNames(m map[string]metric, want []string) error {
	var missing []string
	for _, n := range want {
		if _, ok := m[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 || len(m) != len(want) {
		return fmt.Errorf("pass reported %d metrics, the ledger names %d (missing %v)", len(m), len(want), missing)
	}
	return nil
}

func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(b))
}

func printPass(p *pass) {
	kind := "untraced"
	if p.Traced {
		kind = "traced"
	}
	fmt.Printf("\n== %s, %s pass, seed %d, %d s ==\n", p.Workload, kind, p.Seed, p.Seconds)
	// Numbers in brackets are informational; 0 marks a percentile the
	// rung had too few samples to support.
	for _, r := range p.Rungs {
		fmt.Printf("  rung %-9s %6.0f ops/s: %5d ops, %d failed; place p50 %.3f p95 %.3f ms (n=%d) [p99 %.3f p99.9 %.3f max %.3f]; release p95 %.3f ms (n=%d); lateness p50 %.0f p95 %.0f us [max %.0f]; drain %.1f ms; daemon cpu %.3f ms/op; pass=%v\n",
			r.Phase, r.Rate, r.Ops, r.Failed, r.PlaceP50, r.PlaceP95, r.Places, r.PlaceP99, r.PlaceP999, r.PlaceMax, r.ReleaseP95, r.Releases, r.LateP50, r.LateP95, r.LateMax, r.DrainMs, r.CPUMsPerOp, r.Pass)
	}
	for _, group := range []map[string]metric{p.Metrics, p.Info} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			fmt.Printf("  %-32s %14.4f %-6s", n, m.Value, m.Unit)
			if m.N > 0 {
				fmt.Printf(" n=%d", m.N)
			}
			fmt.Println()
		}
	}
	fmt.Printf("  fail_ratio %d/%d, correct=%v\n", p.Failed, p.Attempted, p.Correct)
	for _, e := range p.Errors {
		fmt.Printf("  ERROR %s\n", e)
	}
}

// meta describes the machine and commit a pass ran on.
type meta struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	Workers   int     `json:"workers"`
	BuildS    float64 `json:"build_s"`
}

// resultRun is one pass with the machine it ran on, as stored in a
// result file.
type resultRun struct {
	Meta meta `json:"meta"`
	Pass pass `json:"pass"`
}

type resultFile struct {
	Runs []resultRun `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendRun adds a pass to the result file, so that repeated runs with
// the same -out build the sets that -compare takes medians over.
func appendRun(path string, m meta, p *pass) error {
	rf, err := readResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, resultRun{m, *p})
	return writeJSON(path, rf)
}
