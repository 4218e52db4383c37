package naas

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"soar/internal/obs"
	"soar/internal/paper"
)

// TestObservabilityEndpoints drives the full HTTP surface the way a
// monitoring stack would: admit and release tenants, pull a
// checkpoint, then scrape GET /metrics and assert every subsystem's
// families are present and moving; /v1/trace must show the per-stage
// spans and /v1/stats the scheduler's snapshot alone.
func TestObservabilityEndpoints(t *testing.T) {
	tr, loads := paper.Figure2()
	_, srv := serveScheduler(t, tr, 2)
	c := NewClient(srv.URL, nil)
	ctx := context.Background()

	if _, err := c.Place(ctx, loads, 2); err != nil {
		t.Fatal(err)
	}
	lease2, err := c.Place(ctx, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(ctx, lease2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(ctx, io.Discard); err != nil {
		t.Fatal(err)
	}

	// Scrape and parse. Every subsystem must have registered, and the
	// families the calls above touched must be nonzero.
	fams, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.TextFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	sum := func(name string) float64 {
		f, ok := byName[name]
		if !ok {
			t.Fatalf("family %s missing from scrape", name)
		}
		var total float64
		for _, smp := range f.Samples {
			total += smp.Value
		}
		return total
	}
	for name, want := range map[string]float64{
		"soar_sched_admissions_total": 2,
		"soar_sched_releases_total":   1,
		"soar_ckpt_saves_total":       1,
	} {
		if got := sum(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, name := range []string{"soar_sched_batches_total", "soar_ckpt_bytes_total"} {
		if got := sum(name); got <= 0 {
			t.Errorf("%s = %v, want > 0", name, got)
		}
	}

	// The histogram invariants must hold on a real scrape too.
	raw, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if ct := raw.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	var buf bytes.Buffer
	io.Copy(&buf, raw.Body)
	parsed, err := obs.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var hist obs.TextFamily
	for _, f := range parsed {
		if f.Name == "soar_sched_place_seconds" {
			hist = f
		}
	}
	bounds, cum, _, err := obs.HistogramSeries(hist, nil)
	if err != nil {
		t.Fatalf("place_seconds histogram invalid: %v", err)
	}
	if len(bounds) == 0 || cum[len(cum)-1] != 2 {
		t.Fatalf("place_seconds count = %v, want 2 admissions", cum)
	}

	// Trace: the ring must hold spans for the admission and checkpoint stages.
	spans, err := c.Trace(ctx, 512)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	for _, ev := range spans {
		ops[ev.Op] = true
	}
	for _, want := range []string{"sched.place", "sched.batch", "ckpt.encode"} {
		if !ops[want] {
			t.Errorf("trace ring has no %s span (saw %v)", want, ops)
		}
	}

	// Stats: the scheduler's snapshot and nothing else.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants != 1 {
		t.Fatalf("stats tenants = %d, want 1", st.Tenants)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	var strict Stats
	if err := dec.Decode(&strict); err != nil {
		t.Fatalf("/v1/stats is not Stats alone: %v", err)
	}
}

// TestReadmeListsServedMetrics holds README's "Metric families" table
// to what a daemon serves, in both directions: every family a
// single-node or sharded front exposes — on the bare page and on
// ?shard=0 — has a row, and every row names a family one of them
// exposes.
func TestReadmeListsServedMetrics(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	_, table, ok := strings.Cut(string(readme), "Metric families (all prefixed `soar_`):\n\n")
	if !ok {
		t.Fatal("README has no metric families table")
	}
	name := regexp.MustCompile("`([a-z0-9_]+)(\\{[^}]*\\})?`")
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		first := strings.Split(line, "|")[1]
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			documented[strings.TrimPrefix(m[1], "soar_")] = true
		}
	}

	tr, _ := paper.Figure2()
	_, single := serveScheduler(t, tr, 2)
	sharded := httptest.NewServer(NewSharded(newTestCluster(t)).Handler())
	t.Cleanup(sharded.Close)
	served := map[string]bool{}
	for _, base := range []string{single.URL, sharded.URL} {
		for _, page := range []string{"/metrics", "/metrics?shard=0"} {
			text, _ := scrape(t, base+page)
			for _, line := range strings.Split(text, "\n") {
				if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
					fam, _, _ := strings.Cut(rest, " ")
					served[strings.TrimPrefix(fam, "soar_")] = true
				}
			}
		}
	}

	var undocumented, unserved []string
	for fam := range served {
		if !documented[fam] {
			undocumented = append(undocumented, fam)
		}
	}
	for fam := range documented {
		if !served[fam] {
			unserved = append(unserved, fam)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unserved)
	if len(undocumented) > 0 {
		t.Errorf("served but missing from README's metric families: %v", undocumented)
	}
	if len(unserved) > 0 {
		t.Errorf("in README's metric families but served by no front: %v", unserved)
	}
}
