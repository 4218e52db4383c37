package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDemo(t *testing.T) {
	if err := runDemo(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlaceBT(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "out.dot")
	err := runPlace([]string{"-topo", "bt", "-n", "32", "-k", "4", "-dist", "uniform", "-rates", "linear", "-dot", dot})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Fatal("dot file missing digraph header")
	}
}

func TestRunPlaceScaleFree(t *testing.T) {
	if err := runPlace([]string{"-topo", "sf", "-n", "60", "-k", "4", "-dist", "one", "-rates", "exp"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlaceRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "mesh"},
		{"-topo", "bt", "-n", "31"},
		{"-topo", "sf", "-n", "0"},
		{"-topo", "sf", "-n", "-3"},
		{"-dist", "gaussian"},
		{"-rates", "quadratic"},
	} {
		if err := runPlace(args); err == nil {
			t.Fatalf("runPlace(%v) succeeded, want error", args)
		}
	}
}

func TestRunExpQuickAll(t *testing.T) {
	if testing.Short() {
		t.Skip("quick figures still take a few seconds")
	}
	dir := t.TempDir()
	if err := runExp([]string{"all", "-quick", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 11 { // fig6..fig11 + 5 extensions
		t.Fatalf("wrote %d csv files, want 11", len(entries))
	}
}

// requireUnknownFlag fails unless err is the flag package's rejection of
// an undefined flag.
func requireUnknownFlag(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("%s: got %v, want an unknown-flag error", what, err)
	}
}

func TestRunExpIncrementalEngine(t *testing.T) {
	// fig7's SOAR allocator always solves on the incremental engine now
	// (TestFig7IncrementalEngineMatchesFull holds it to the from-scratch
	// replay), so exp has no -engine flag left to select it with.
	if err := runExp([]string{"fig7", "-quick", "-reps", "1"}); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"full", "incremental"} {
		requireUnknownFlag(t, "exp -engine "+engine, runExp([]string{"fig7", "-quick", "-reps", "1", "-engine", engine}))
	}
}

func TestRunPlaceEngines(t *testing.T) {
	// Every engine returned the same placement, so place lost its -engine
	// flag with the engines.
	for _, engine := range []string{"full", "compact", "parallel", "distributed", "incremental", "memo"} {
		requireUnknownFlag(t, "place -engine "+engine, runPlace([]string{"-topo", "bt", "-n", "32", "-k", "4", "-engine", engine}))
	}
}

func TestRunExpFlagOrder(t *testing.T) {
	// Both `exp fig6 -quick` and `exp -quick fig6` must work.
	if err := runExp([]string{"fig6", "-quick", "-reps", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := runExp([]string{"-quick", "-reps", "1", "fig6"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExpUnknownFigure(t *testing.T) {
	if err := runExp([]string{"fig99", "-quick"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := runExp([]string{"-quick"}); err == nil {
		t.Fatal("missing figure accepted")
	}
}

func TestRunClusterSmall(t *testing.T) {
	if err := runCluster([]string{"-n", "16", "-k", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerifySmall(t *testing.T) {
	if err := runVerify([]string{"-trials", "25", "-max-n", "9", "-max-k", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlaceCapsProfiles(t *testing.T) {
	for _, spec := range []string{
		"uniform:2",
		"tiered:1,2,4",
		"tor:0.5,2",
		"powerlaw:4,2.5",
	} {
		args := []string{"-topo", "bt", "-n", "32", "-k", "6", "-caps", spec}
		if err := runPlace(args); err != nil {
			t.Fatalf("caps %q: %v", spec, err)
		}
	}
}

// TestRunPlaceRejectsBadCapsProfiles pins the contract that malformed
// -caps strings error out instead of panicking: the parser fronts raw
// user input for topology builders whose panics are programmer errors.
func TestRunPlaceRejectsBadCapsProfiles(t *testing.T) {
	for _, spec := range []string{
		"mesh:1",          // unknown profile
		"uniform",         // missing argument
		"uniform:-1",      // negative capacity
		"uniform:x",       // non-integer
		"tiered:",         // empty levels
		"tiered:1,-2",     // negative level
		"tiered:1,two",    // non-integer level
		"tor:1.5,2",       // fraction out of range
		"tor:0.5",         // missing capacity
		"tor:0.5,0",       // zero capacity
		"powerlaw:0,2",    // max < 1
		"powerlaw:4,0",    // alpha ≤ 0
		"powerlaw:4",      // missing alpha
		"powerlaw:4,2,9",  // too many arguments
		"uniform:999,123", // trailing garbage
	} {
		args := []string{"-topo", "bt", "-n", "32", "-k", "4", "-caps", spec}
		if err := runPlace(args); err == nil {
			t.Fatalf("caps %q accepted, want error", spec)
		}
	}
}

func TestRunExpHeteroQuick(t *testing.T) {
	if err := runExp([]string{"ext-hetero", "-quick", "-reps", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := runExp([]string{"ext-hetero", "-quick", "-reps", "1", "-caps", "tiered"}); err != nil {
		t.Fatal(err)
	}
	if err := runExp([]string{"ext-hetero", "-quick", "-caps", "warp"}); err == nil {
		t.Fatal("unknown exp -caps accepted")
	}
}
