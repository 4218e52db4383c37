package naas

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"soar/internal/obs"
)

// Client consumes the NaaS HTTP API from Go.
type Client struct {
	base string
	http *http.Client
}

// NewClient targets a service at baseURL (e.g. "http://127.0.0.1:7070").
// httpClient may be nil for http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: baseURL, http: httpClient}
}

// ClientLease is the client-side view of a lease.
type ClientLease struct {
	ID     int64   `json:"id"`
	Blue   []int   `json:"blue"`
	K      int     `json:"k"`
	Phi    float64 `json:"phi"`
	AllRed float64 `json:"all_red"`
	Ratio  float64 `json:"ratio"`
}

// Place admits a tenant with the given load vector and budget.
func (c *Client) Place(ctx context.Context, load []int, k int) (*ClientLease, error) {
	body, err := json.Marshal(placeRequest{Load: load, K: k})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/tenants", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var lease ClientLease
	if err := c.do(req, http.StatusCreated, &lease); err != nil {
		return nil, err
	}
	return &lease, nil
}

// Lookup fetches a lease by id.
func (c *Client) Lookup(ctx context.Context, id int64) (*ClientLease, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/tenants/%d", c.base, id), nil)
	if err != nil {
		return nil, err
	}
	var lease ClientLease
	if err := c.do(req, http.StatusOK, &lease); err != nil {
		return nil, err
	}
	return &lease, nil
}

// Release ends a lease.
func (c *Client) Release(ctx context.Context, id int64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		fmt.Sprintf("%s/v1/tenants/%d", c.base, id), nil)
	if err != nil {
		return err
	}
	return c.do(req, http.StatusNoContent, nil)
}

// Stats fetches a single node's summary (a sharded front answers 400:
// it needs ?shard=K).
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	var st Stats
	if err := c.do(req, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Residual fetches the per-switch residual capacities.
func (c *Client) Residual(ctx context.Context) ([]int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/residual", nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Residual []int `json:"residual"`
	}
	if err := c.do(req, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out.Residual, nil
}

// Checkpoint streams a consistent checkpoint of the service's control
// plane into w (the bytes a fresh sched.Scheduler.Restore accepts) and
// returns the size.
func (c *Client) Checkpoint(ctx context.Context, w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/checkpoint", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("naas: HTTP %d", resp.StatusCode)
	}
	return io.Copy(w, resp.Body)
}

// SaveCheckpoint asks the daemon to persist a checkpoint to its
// configured path and returns where it landed.
func (c *Client) SaveCheckpoint(ctx context.Context) (path string, size int64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/checkpoint", nil)
	if err != nil {
		return "", 0, err
	}
	var out struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}
	if err := c.do(req, http.StatusOK, &out); err != nil {
		return "", 0, err
	}
	return out.Path, out.Bytes, nil
}

// Shards fetches per-shard membership from a sharded daemon (GET
// /v1/shards). A non-sharded daemon answers 404.
func (c *Client) Shards(ctx context.Context) ([]ShardInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/shards", nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Shards []ShardInfo `json:"shards"`
	}
	if err := c.do(req, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out.Shards, nil
}

// Ready probes GET /v1/readyz: true on 200, false on 503, an error on
// anything else (including an unreachable daemon).
func (c *Client) Ready(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusServiceUnavailable:
		return false, nil
	default:
		return false, fmt.Errorf("naas: HTTP %d", resp.StatusCode)
	}
}

// Metrics scrapes GET /metrics and parses the exposition into
// families (obs.ParseText).
func (c *Client) Metrics(ctx context.Context) ([]obs.TextFamily, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("naas: HTTP %d", resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}

// Trace fetches the newest n spans from the daemon's trace ring.
func (c *Client) Trace(ctx context.Context, n int) ([]obs.SpanEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/trace?n=%d", c.base, n), nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Spans []obs.SpanEvent `json:"spans"`
	}
	if err := c.do(req, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out.Spans, nil
}

func (c *Client) do(req *http.Request, wantStatus int, out interface{}) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var apiErr struct {
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("naas: %s (HTTP %d)", apiErr.Error, resp.StatusCode)
		}
		return fmt.Errorf("naas: HTTP %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("naas: decode response: %w", err)
	}
	return nil
}
