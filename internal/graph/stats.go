package graph

import "slices"

// Stats summarizes a graph in the shape of the paper's Table II (dataset
// details: n, m, type, average degree), extended with the degree
// distribution facts that drive the experiments.
type Stats struct {
	N          int
	M          int64   // directed edge count as stored
	Type       string  // "directed" or "undirected" (declared)
	AvgDegree  float64 // Table II convention: m/n with m counted per declared type
	MaxOutDeg  int
	MaxInDeg   int
	OutDegP50  int
	OutDegP90  int
	OutDegP99  int
	Isolated   int // nodes with no in or out edges
	MeanEdgeP  float64
	MinEdgeP   float64
	MaxEdgeP   float64
	WeaklyConn int // number of weakly connected components
}

// ComputeStats gathers Stats for g. O(N + M) plus a union-find pass.
func ComputeStats(g *Graph) Stats {
	s := Stats{N: g.N(), M: g.M()}
	if g.Directed() {
		s.Type = "directed"
		s.AvgDegree = safeDiv(float64(g.M()), float64(g.N()))
	} else {
		s.Type = "undirected"
		// Undirected datasets store both directions; Table II counts each
		// undirected edge once and reports average undirected degree.
		s.AvgDegree = safeDiv(float64(g.M()), float64(g.N()))
	}

	outDegs := make([]int, g.N())
	minP, maxP, sumP := 1.0, 0.0, 0.0
	var edges int64
	for u := 0; u < g.N(); u++ {
		od := g.OutDegree(NodeID(u))
		id := g.InDegree(NodeID(u))
		outDegs[u] = od
		if od > s.MaxOutDeg {
			s.MaxOutDeg = od
		}
		if id > s.MaxInDeg {
			s.MaxInDeg = id
		}
		if od == 0 && id == 0 {
			s.Isolated++
		}
		_, ps := g.OutNeighbors(NodeID(u))
		for _, p := range ps {
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
			sumP += p
			edges++
		}
	}
	if edges > 0 {
		s.MeanEdgeP = sumP / float64(edges)
		s.MinEdgeP = minP
		s.MaxEdgeP = maxP
	}
	slices.Sort(outDegs)
	s.OutDegP50 = percentile(outDegs, 0.50)
	s.OutDegP90 = percentile(outDegs, 0.90)
	s.OutDegP99 = percentile(outDegs, 0.99)
	s.WeaklyConn = weakComponents(g)
	return s
}

func percentile(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// weakComponents counts weakly connected components with union-find.
func weakComponents(g *Graph) int {
	parent := make([]int32, g.N())
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for u := int32(0); u < int32(g.N()); u++ {
		adj, _ := g.OutNeighbors(u)
		for _, v := range adj {
			union(u, v)
		}
	}
	roots := make(map[int32]struct{})
	for u := int32(0); u < int32(g.N()); u++ {
		roots[find(u)] = struct{}{}
	}
	return len(roots)
}
