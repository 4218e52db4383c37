package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"soar/internal/obs"
)

// lease is the daemon's reply to a Place or a lookup.
type lease struct {
	ID     int64   `json:"id"`
	Blue   []int   `json:"blue"`
	K      int     `json:"k"`
	Phi    float64 `json:"phi"`
	AllRed float64 `json:"all_red"`
	Ratio  float64 `json:"ratio"`
}

// span is one timed step of one request, recorded by the client in the
// traced pass. Spans of one request share Req; Parent is the ID of the
// span that caused this one (0 for the request's root span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// client talks to one daemon over keep-alive connections, at most one
// per worker. With tracing on it records, per request, the spans
// client.encode (build the request), client.roundtrip (send it, wait
// for the response header) and client.decode (read and parse the body)
// under a root span named after the op.
type client struct {
	base  string
	hc    *http.Client
	epoch time.Time // span times are offsets from here
	// spans[w] is worker w's span log; nil when tracing is off. One log
	// per worker keeps recording lock-free.
	spans [][]span
}

func newClient(base string, workers int, traced bool) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
	c := &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, epoch: time.Now()}
	if traced {
		c.spans = make([][]span, workers)
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call performs one request on behalf of worker w. req identifies the
// op in the trace. A status other than want is an error.
func (c *client) call(w, req int, op, method, path string, body []byte, want int, out any) error {
	t0 := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	t1 := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	t2 := time.Now()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	if c.spans != nil {
		t3 := time.Now()
		us := func(t time.Time) int64 { return t.Sub(c.epoch).Microseconds() }
		// Worker w of n numbers its spans w+1, w+1+n, w+1+2n, …: unique
		// across the per-worker logs without a shared counter.
		n, log := len(c.spans), c.spans[w]
		id := func(j int) int { return w + 1 + n*(len(log)+j) }
		c.spans[w] = append(log,
			span{ID: id(0), Req: req, Name: op, StartUs: us(t0), EndUs: us(t3)},
			span{ID: id(1), Parent: id(0), Req: req, Name: "client.encode", StartUs: us(t0), EndUs: us(t1)},
			span{ID: id(2), Parent: id(0), Req: req, Name: "client.roundtrip", StartUs: us(t1), EndUs: us(t2)},
			span{ID: id(3), Parent: id(0), Req: req, Name: "client.decode", StartUs: us(t2), EndUs: us(t3)},
		)
	}
	return nil
}

func (c *client) place(w, req int, body []byte) (*lease, error) {
	var l lease
	if err := c.call(w, req, "place", http.MethodPost, "/v1/tenants", body, http.StatusCreated, &l); err != nil {
		return nil, err
	}
	return &l, nil
}

func (c *client) release(w, req int, id int64) error {
	return c.call(w, req, "release", http.MethodDelete, "/v1/tenants/"+strconv.FormatInt(id, 10), nil, http.StatusNoContent, nil)
}

func (c *client) lookup(w int, id int64) (*lease, error) {
	var l lease
	if err := c.call(w, 0, "lookup", http.MethodGet, "/v1/tenants/"+strconv.FormatInt(id, 10), nil, http.StatusOK, &l); err != nil {
		return nil, err
	}
	return &l, nil
}

func (c *client) getJSON(path string, out any) error {
	return c.call(0, 0, "get", http.MethodGet, path, nil, http.StatusOK, out)
}

func (c *client) residual() ([]int, error) {
	var out struct {
		Residual []int `json:"residual"`
	}
	err := c.getJSON("/v1/residual", &out)
	return out.Residual, err
}

// scrape fetches and parses a Prometheus text page (/metrics, or
// /metrics?shard=K on a sharded daemon).
func (c *client) scrape(path string) ([]obs.TextFamily, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}

// sample returns the summed value of every sample called name.
func sample(fams []obs.TextFamily, name string) float64 {
	var v float64
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name {
				v += s.Value
			}
		}
	}
	return v
}
