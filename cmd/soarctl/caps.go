package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"soar/internal/topology"
)

// capsProfileHelp documents the profile grammar of place's -caps flag.
const capsProfileHelp = "per-switch capacity profile: uniform:C | tiered:C0,C1,... (root level first, last extends) | tor:P,C (fraction P of leaves, capacity C) | powerlaw:MAX,ALPHA (empty = classic uniform-1 model)"

// parseCapsProfile resolves a -caps profile spec against a concrete
// tree. An empty spec returns nil (the classic uniform model). Malformed
// specs return an error — they must never panic, since they carry raw
// user input (the topology builders' panics are for programmer errors).
func parseCapsProfile(spec string, t *topology.Tree, rng *rand.Rand) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	name, args, _ := strings.Cut(spec, ":")
	switch name {
	case "uniform":
		c, err := strconv.Atoi(args)
		if err != nil || c < 0 {
			return nil, fmt.Errorf("-caps uniform:C needs an integer C ≥ 0, got %q", args)
		}
		return topology.CapsUniform(t, c), nil
	case "tiered":
		if args == "" {
			return nil, fmt.Errorf("-caps tiered needs at least one level capacity")
		}
		parts := strings.Split(args, ",")
		byLevel := make([]int, len(parts))
		for i, p := range parts {
			c, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || c < 0 {
				return nil, fmt.Errorf("-caps tiered level %d: need an integer ≥ 0, got %q", i, p)
			}
			byLevel[i] = c
		}
		return topology.CapsTiered(t, byLevel...), nil
	case "tor":
		parts := strings.Split(args, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("-caps tor:P,C needs exactly two arguments, got %q", args)
		}
		p, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("-caps tor fraction must be in [0, 1], got %q", parts[0])
		}
		c, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("-caps tor capacity must be an integer ≥ 1, got %q", parts[1])
		}
		return topology.CapsTorOnly(t, c, p, rng), nil
	case "powerlaw":
		parts := strings.Split(args, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("-caps powerlaw:MAX,ALPHA needs exactly two arguments, got %q", args)
		}
		max, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil || max < 1 {
			return nil, fmt.Errorf("-caps powerlaw max must be an integer ≥ 1, got %q", parts[0])
		}
		alpha, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil || alpha <= 0 {
			return nil, fmt.Errorf("-caps powerlaw alpha must be > 0, got %q", parts[1])
		}
		return topology.CapsPowerLaw(t, max, alpha, rng), nil
	default:
		return nil, fmt.Errorf("unknown -caps profile %q (want uniform, tiered, tor or powerlaw)", name)
	}
}

// capsSummary is a one-line description of a resolved profile for
// place's banner: total units, available switches, weight range.
func capsSummary(caps []int) string {
	if caps == nil {
		return "uniform (every switch, weight 1)"
	}
	total, avail, maxC := 0, 0, 0
	minC := -1
	for _, c := range caps {
		total += c
		if c > 0 {
			avail++
			if minC < 0 || c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
	}
	if avail == 0 {
		return "no switch may aggregate"
	}
	return fmt.Sprintf("%d/%d switches available, weights %d..%d, %d units total", avail, len(caps), minC, maxC, total)
}
