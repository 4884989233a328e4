// Package gen builds synthetic social networks used as stand-ins for the
// paper's SNAP datasets (Table II), which are not shipped with this
// offline repository.
//
// The experiments in the paper depend on four structural properties of
// the input graphs: node count, average degree, directedness, and a
// heavy-tailed degree distribution (which makes "influential" nodes exist
// for IMM to find and for the cost models to price). The generators here
// reproduce those properties; see DESIGN.md §4 for the substitution
// argument.
package gen

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Config selects a generator and its parameters.
type Config struct {
	Model    Model
	N        int     // number of nodes
	AvgDeg   float64 // target average out-degree
	Directed bool
	Seed     uint64

	// Power-law specific: exponent of the in-degree distribution tail.
	// 0 means the model default (2.1, typical of social networks).
	Exponent float64

	// SmallWorld specific: rewiring probability. 0 means default 0.1.
	Rewire float64
}

// Model enumerates the available generators.
type Model int

const (
	// ErdosRenyi wires each edge independently; light-tailed degrees.
	ErdosRenyi Model = iota
	// PrefAttach grows the graph with preferential attachment, producing
	// the heavy-tailed degree distribution of real social networks.
	PrefAttach
	// SmallWorld is a Watts-Strogatz ring with random rewiring.
	SmallWorld
	// PowerLawConfig draws in-degrees from a discrete power law and wires
	// a configuration-model digraph.
	PowerLawConfig
)

// String names the model for reports.
func (m Model) String() string {
	switch m {
	case ErdosRenyi:
		return "erdos-renyi"
	case PrefAttach:
		return "pref-attach"
	case SmallWorld:
		return "small-world"
	case PowerLawConfig:
		return "power-law"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Generate builds a graph per cfg and applies the paper's weighted-cascade
// weighting p(u,v) = 1/indeg(v).
func Generate(cfg Config) (*graph.Graph, error) {
	if cfg.N <= 1 {
		return nil, fmt.Errorf("gen: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.AvgDeg <= 0 {
		return nil, fmt.Errorf("gen: average degree must be positive, got %v", cfg.AvgDeg)
	}
	r := rng.New(cfg.Seed)
	var b *graph.Builder
	var err error
	switch cfg.Model {
	case ErdosRenyi:
		b, err = erdosRenyi(cfg, r)
	case PrefAttach:
		b, err = prefAttach(cfg, r)
	case SmallWorld:
		b, err = smallWorld(cfg, r)
	case PowerLawConfig:
		b, err = powerLawConfig(cfg, r)
	default:
		return nil, fmt.Errorf("gen: unknown model %v", cfg.Model)
	}
	if err != nil {
		return nil, err
	}
	b.Dedup()
	b.ApplyWeightedCascade()
	return b.Build(), nil
}

// erdosRenyi wires round(N*AvgDeg) directed edges uniformly at random.
func erdosRenyi(cfg Config, r *rng.RNG) (*graph.Builder, error) {
	b := graph.NewBuilder(cfg.N, cfg.Directed)
	target := int64(float64(cfg.N) * cfg.AvgDeg)
	if !cfg.Directed {
		target /= 2 // each undirected edge contributes two arcs
	}
	maxEdges := int64(cfg.N) * int64(cfg.N-1)
	if cfg.Directed && target > maxEdges {
		return nil, fmt.Errorf("gen: %d edges exceed capacity %d", target, maxEdges)
	}
	if cfg.Directed {
		b.Grow(int(target))
	} else {
		b.Grow(2 * int(target))
	}
	seen := newPairSet(target)
	for accepted := int64(0); accepted < target; {
		u := int32(r.Intn(cfg.N))
		v := int32(r.Intn(cfg.N))
		if u == v || !seen.add(u, v) {
			continue
		}
		accepted++
		if cfg.Directed {
			if err := b.AddArc(u, v); err != nil {
				return nil, err
			}
		} else {
			if err := b.AddArc(u, v); err != nil {
				return nil, err
			}
			if err := b.AddArc(v, u); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// pairSet is a flat open-addressing set of ordered node pairs, each
// packed into one uint64. The packed pair (0, 0) is a self-loop, which no
// caller adds, so it marks an empty slot. The table is a power of two at
// least 1.5 times the expected size (load at most 2/3), probed linearly
// from a multiplicative hash of the key.
type pairSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
}

func newPairSet(expect int64) *pairSet {
	bits := uint(1)
	for int64(1)<<bits < expect+expect/2 {
		bits++
	}
	return &pairSet{slots: make([]uint64, 1<<bits), shift: 64 - bits}
}

// add inserts the pair (u, v), u != v, and reports whether it was absent.
// The set must not fill up: callers add at most the expected count.
func (s *pairSet) add(u, v int32) bool {
	k := uint64(uint32(u))<<32 | uint64(uint32(v))
	mask := uint64(len(s.slots) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
	}
}

// prefAttach grows a Barabási-Albert-style graph: each new node attaches
// k = AvgDeg/2 (undirected) or AvgDeg (directed, as out-edges) times to
// existing nodes chosen proportionally to their current degree.
func prefAttach(cfg Config, r *rng.RNG) (*graph.Builder, error) {
	k := int(cfg.AvgDeg)
	if !cfg.Directed {
		k = int(cfg.AvgDeg / 2)
	}
	if k < 1 {
		k = 1
	}
	if cfg.N <= k {
		return nil, fmt.Errorf("gen: pref-attach needs N > k, got N=%d k=%d", cfg.N, k)
	}
	b := graph.NewBuilder(cfg.N, cfg.Directed)
	arcs := (k+1)*k + (cfg.N-k-1)*k // seed clique + k attachments per later node
	if !cfg.Directed {
		arcs += (cfg.N - k - 1) * k // each attachment's reverse arc
	}
	b.Grow(arcs)
	// targets holds one entry per degree unit; sampling an index gives
	// degree-proportional attachment.
	targets := make([]int32, 0, 2*cfg.N*k)
	// Seed clique over the first k+1 nodes.
	for u := 0; u <= k; u++ {
		for v := 0; v <= k; v++ {
			if u == v {
				continue
			}
			if err := b.AddArc(int32(u), int32(v)); err != nil {
				return nil, err
			}
		}
		for i := 0; i < k; i++ {
			targets = append(targets, int32(u))
		}
	}
	// chosen is an insertion-ordered distinct set of at most k entries, so
	// a linear scan rejects repeats faster than hashing would.
	chosen := make([]int32, 0, k)
	for u := k + 1; u < cfg.N; u++ {
		chosen = chosen[:0]
		for len(chosen) < k {
			var v int32
			// Mix degree-proportional and uniform attachment so low-degree
			// nodes keep some in-probability (exponent control).
			if r.Float64() < 0.9 {
				v = targets[r.Intn(len(targets))]
			} else {
				v = int32(r.Intn(u))
			}
			if v == int32(u) || slices.Contains(chosen, v) {
				continue
			}
			chosen = append(chosen, v)
		}
		for _, v := range chosen {
			if err := b.AddArc(int32(u), v); err != nil {
				return nil, err
			}
			if !cfg.Directed {
				if err := b.AddArc(v, int32(u)); err != nil {
					return nil, err
				}
			}
			targets = append(targets, v, int32(u))
		}
	}
	return b, nil
}

// smallWorld builds a Watts-Strogatz ring lattice with rewiring.
func smallWorld(cfg Config, r *rng.RNG) (*graph.Builder, error) {
	k := int(cfg.AvgDeg)
	if !cfg.Directed {
		k = int(cfg.AvgDeg / 2)
	}
	if k < 1 {
		k = 1
	}
	if k >= cfg.N {
		return nil, fmt.Errorf("gen: small-world needs k < N, got k=%d N=%d", k, cfg.N)
	}
	beta := cfg.Rewire
	if beta == 0 {
		beta = 0.1
	}
	b := graph.NewBuilder(cfg.N, cfg.Directed)
	if cfg.Directed {
		b.Grow(cfg.N * k)
	} else {
		b.Grow(2 * cfg.N * k)
	}
	for u := 0; u < cfg.N; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % cfg.N
			if r.Float64() < beta {
				for {
					v = r.Intn(cfg.N)
					if v != u {
						break
					}
				}
			}
			if err := b.AddArc(int32(u), int32(v)); err != nil {
				return nil, err
			}
			if !cfg.Directed {
				if err := b.AddArc(int32(v), int32(u)); err != nil {
					return nil, err
				}
			}
		}
	}
	return b, nil
}

// powerLawConfig samples in-degrees from P(d) ∝ d^(-γ) truncated to
// [1, sqrt(N*AvgDeg)] and wires sources uniformly (directed configuration
// model). Heavy in-degree tail mirrors real follower distributions.
func powerLawConfig(cfg Config, r *rng.RNG) (*graph.Builder, error) {
	gamma := cfg.Exponent
	if gamma == 0 {
		gamma = 2.1
	}
	if gamma <= 1 {
		return nil, fmt.Errorf("gen: power-law exponent must exceed 1, got %v", gamma)
	}
	maxDeg := intSqrt(int64(float64(cfg.N) * cfg.AvgDeg))
	if maxDeg < 2 {
		maxDeg = 2
	}
	if maxDeg >= int64(cfg.N) {
		maxDeg = int64(cfg.N) - 1
	}
	// Precompute the truncated power-law CDF.
	weights := make([]float64, maxDeg+1)
	total := 0.0
	for d := int64(1); d <= maxDeg; d++ {
		w := pow(float64(d), -gamma)
		total += w
		weights[d] = total
	}
	sample := func() int64 {
		x := r.Float64() * total
		lo, hi := int64(1), maxDeg
		for lo < hi {
			mid := (lo + hi) / 2
			if weights[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// Scale sampled degrees so the realized average matches AvgDeg.
	degs := make([]int64, cfg.N)
	var sum int64
	for i := range degs {
		degs[i] = sample()
		sum += degs[i]
	}
	want := int64(float64(cfg.N) * cfg.AvgDeg)
	if !cfg.Directed {
		want /= 2
	}
	if sum == 0 {
		return nil, fmt.Errorf("gen: degenerate degree sample")
	}
	scale := float64(want) / float64(sum)
	b := graph.NewBuilder(cfg.N, cfg.Directed)
	// picked[u] == v marks u as already wired into v.
	picked := make([]int32, cfg.N)
	for i := range picked {
		picked[i] = -1
	}
	for v := 0; v < cfg.N; v++ {
		d := int64(float64(degs[v])*scale + r.Float64()) // stochastic rounding
		for wired := int64(0); wired < d && wired < int64(cfg.N-1); {
			u := int32(r.Intn(cfg.N))
			if int(u) == v || picked[u] == int32(v) {
				continue
			}
			picked[u] = int32(v)
			wired++
			if err := b.AddArc(u, int32(v)); err != nil {
				return nil, err
			}
			if !cfg.Directed {
				if err := b.AddArc(int32(v), u); err != nil {
					return nil, err
				}
			}
		}
	}
	return b, nil
}

func intSqrt(x int64) int64 {
	if x < 0 {
		return 0
	}
	r := int64(1)
	for r*r <= x {
		r++
	}
	return r - 1
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
