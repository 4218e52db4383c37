package cluster

import (
	"context"
	"math/rand"

	"soar/internal/core"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// rngInt63n draws jitter from the shared math/rand source (which is
// safe for concurrent use). n must be > 0.
func rngInt63n(n int64) int64 { return rand.Int63n(n) }

// RunOrFallback is the graceful-degradation entry point: it attempts the
// distributed run up to Retry.Attempts times, backing off exponentially
// with jitter between attempts, and — when every attempt fails on a
// transport fault — falls back to a local core.SolveCaps solve instead
// of returning an error. The fallback result is exact (the local solver
// is the very DP the cluster distributes; every engine is
// equivalence-tested) but carries Degraded = true and the last transport
// error in Cause, because no Reduce traffic actually crossed the
// network: ReduceMessages and ReducePhi are the values the Reduce WOULD
// produce under the computed placement.
//
// Input-validation errors and context cancellation are not degraded
// over: bad problems and dead contexts return an error as usual.
func RunOrFallback(ctx context.Context, t *topology.Tree, load []int, caps []int, k int, opts *Options) (*Result, error) {
	if err := validateInputs(t, load, caps); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	var lastErr error
	attempts := opts.Retry.attempts()
	attempt := 1
	for ; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if err := sleepBackoff(ctx, opts.Retry, attempt-1); err != nil {
				return nil, err // ctx died while backing off
			}
		}
		res, err := RunWithOptions(ctx, t, load, caps, k, opts)
		if err == nil {
			res.Attempts = attempt
			opts.Metrics.noteAttempts(attempt)
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	res := solveLocal(t, load, caps, k)
	res.Attempts = attempts
	res.Cause = lastErr
	opts.Metrics.noteAttempts(attempts)
	opts.Metrics.noteDegraded()
	return res, nil
}

// solveLocal computes the placement and its Reduce costs without any
// network: the degraded path of RunOrFallback.
func solveLocal(t *topology.Tree, load []int, caps []int, k int) *Result {
	r := core.SolveCaps(t, load, caps, k)
	counts := reduce.MessageCounts(t, load, r.Blue)
	var phi float64
	for v, c := range counts {
		phi += float64(c) * t.Rho(v)
	}
	return &Result{
		Blue:           r.Blue,
		Cost:           r.Cost,
		ReduceMessages: counts[t.Root()],
		ReducePhi:      phi,
		Degraded:       true,
	}
}
