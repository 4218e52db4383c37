// Command benchgate compares two `go test -bench` outputs and fails on
// performance regressions: CI runs the key benchmarks on the base commit
// and on the head commit, then gates the merge on the delta staying
// under a threshold (a benchstat-style comparison without external
// dependencies).
//
// Usage:
//
//	benchgate -base base.txt -head head.txt [-threshold 0.30] [-match regexp]
//	go test -bench ... | benchgate -record BENCH_x.json -commit HASH
//
// Each benchmark's samples (from -count N) collapse to their minimum —
// the most noise-robust central tendency for "how fast can this go" on
// shared CI runners. A benchmark is a regression when
// min(head) > min(base)·(1+threshold); benchmarks present in only one
// file are reported but never fail the gate (they were added or
// removed). Exit status 1 on any regression.
//
// The -record mode keeps the trajectory (`make bench`): it reads bench
// output on standard input, passes it through, and appends one JSON
// line to the named file — the commit, the time, the cpu line of the
// run and each benchmark's min-of-counts ns/op — so the file
// accumulates one comparable record per commit instead of being
// overwritten.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	base := flag.String("base", "", "bench output of the base commit")
	head := flag.String("head", "", "bench output of the head commit")
	threshold := flag.Float64("threshold", 0.30, "maximum allowed relative slowdown (0.30 = +30%)")
	match := flag.String("match", "", "only gate benchmarks whose name matches this regexp (empty = all)")
	record := flag.String("record", "", "append a min-of-counts record of the bench output on standard input to this file")
	commit := flag.String("commit", "", "commit hash stamped on the -record line")
	flag.Parse()
	if *record != "" {
		var in bytes.Buffer
		if _, err := io.Copy(io.MultiWriter(&in, os.Stdout), os.Stdin); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		if err := Record(*record, *commit, time.Now().UTC(), in.String()); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base and -head are required")
		os.Exit(2)
	}
	re, err := compileMatch(*match)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -match: %v\n", err)
		os.Exit(2)
	}
	baseNs, err := parseFile(*base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	headNs, err := parseFile(*head)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	report, regressions := Compare(baseNs, headNs, re, *threshold)
	fmt.Print(report)
	if len(regressions) > 0 {
		fmt.Printf("\nFAIL: %d benchmark(s) regressed beyond +%.0f%%: %s\n",
			len(regressions), *threshold*100, strings.Join(regressions, ", "))
		os.Exit(1)
	}
	fmt.Printf("\nPASS: no benchmark regressed beyond +%.0f%%\n", *threshold*100)
}

// Record appends one trajectory line for the bench output in text to
// the file at path: min-of-counts ns/op per benchmark, stamped with the
// commit, the time and the machine the output names.
func Record(path, commit string, at time.Time, text string) error {
	samples, err := ParseBench(strings.NewReader(text))
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no benchmark results to record in %s", path)
	}
	rec := struct {
		Commit  string             `json:"commit"`
		Time    string             `json:"time"`
		CPU     string             `json:"cpu,omitempty"`
		Samples int                `json:"samples"`
		NsPerOp map[string]float64 `json:"ns_per_op"`
	}{Commit: commit, Time: at.Format(time.RFC3339), NsPerOp: make(map[string]float64, len(samples))}
	for _, line := range strings.Split(text, "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rec.CPU = cpu
			break
		}
	}
	for name, xs := range samples {
		rec.NsPerOp[name] = minOf(xs)
		rec.Samples = max(rec.Samples, len(xs))
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func compileMatch(expr string) (*regexp.Regexp, error) {
	if expr == "" {
		return nil, nil
	}
	return regexp.Compile(expr)
}

func parseFile(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseBench(f)
}

// ParseBench reads `go test -bench` text output and returns ns/op
// samples per benchmark name. The goroutine-count suffix (-8) is
// stripped so runs from differently sized machines still line up.
func ParseBench(r io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		// fields: name, iterations, value, unit, [more value/unit pairs].
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad ns/op value %q", sc.Text(), fields[i])
			}
			out[name] = append(out[name], v)
			break
		}
	}
	return out, sc.Err()
}

// stripProcs removes the trailing -GOMAXPROCS from a benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Compare renders the delta table and returns the regressed benchmark
// names. Only benchmarks present in both maps (and matching re, when
// non-nil) are gated.
func Compare(base, head map[string][]float64, re *regexp.Regexp, threshold float64) (string, []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	for name := range head {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "%-60s %14s %14s %9s\n", "benchmark", "base ns/op", "head ns/op", "delta")
	var regressions []string
	for _, name := range names {
		if re != nil && !re.MatchString(name) {
			continue
		}
		bs, inBase := base[name]
		hs, inHead := head[name]
		switch {
		case !inBase:
			fmt.Fprintf(&b, "%-60s %14s %14.0f %9s\n", name, "-", minOf(hs), "new")
		case !inHead:
			fmt.Fprintf(&b, "%-60s %14.0f %14s %9s\n", name, minOf(bs), "-", "gone")
		default:
			bm, hm := minOf(bs), minOf(hs)
			delta := hm/bm - 1
			mark := ""
			if delta > threshold {
				mark = " !"
				regressions = append(regressions, name)
			}
			fmt.Fprintf(&b, "%-60s %14.0f %14.0f %+8.1f%%%s\n", name, bm, hm, delta*100, mark)
		}
	}
	return b.String(), regressions
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
