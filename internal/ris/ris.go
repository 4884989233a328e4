package ris

import (
	"math"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
)

// sampler generates RR sets on a (residual view of a) graph. It is not
// safe for concurrent use: a samplerPool owns one per worker, each with
// its own RNG stream.
type sampler struct {
	res   *graph.Residual
	model cascade.Model
	r     *rng.RNG

	// Scratch buffers reused across draws to avoid per-RR-set allocation.
	// touched doubles as the BFS frontier: nodes are expanded in append
	// order, so no separate stack is maintained.
	visited []bool
	touched []graph.NodeID
	perm    []int32 // position scratch for large success counts

	// skipAlive is set per draw when every node is alive (full residual):
	// pushNode then skips the aliveness lookup, saving a random memory
	// access per traversed edge in the common early rounds.
	skipAlive bool

	// noFast forces the per-edge reference path even on uniform
	// in-probability graphs; distributional-equivalence tests set it.
	noFast bool

	// Bandwidth accounting, cumulative across draws: visits counts nodes
	// added to RR sets, edgeTouches counts in-adjacency entries actually
	// read. Together they price a draw in memory traffic (see
	// Stats.RRVisits).
	visits      uint64
	edgeTouches uint64
}

// bind points the sampler at a residual view and RNG stream, growing all
// scratch to its worst case when the underlying graph is larger than
// anything seen before: visited and touched from the node count, perm
// from the maximum in-degree (the largest position set pickPositions can
// spill). Sizing everything here — instead of growing touched/perm ad
// hoc inside the draw loop — is what makes the warm loop allocation-free
// from the very first draw. samplerPool rebinds its workers this way on
// every batch, so scratch survives across attempts, rounds, and
// algorithms.
func (s *sampler) bind(res *graph.Residual, r *rng.RNG) {
	s.res = res
	s.r = r
	n := res.FullN()
	if len(s.visited) < n {
		s.visited = make([]bool, n)
	}
	if cap(s.touched) < n {
		s.touched = make([]graph.NodeID, 0, n)
	}
	if d := res.Graph().MaxInDegree(); cap(s.perm) < d {
		s.perm = make([]int32, d)
	}
}

const countSentinel = ^uint32(0)

// jumpMaxP bounds the per-edge probability up to which geometric jumps
// beat a plain coin-per-edge scan: one jump costs a log evaluation
// (~6 coin flips), and the expected number of jumps over d edges is
// d·p + 1, so large p degrades toward per-edge cost with a worse
// constant.
const jumpMaxP = 0.25

// drawTouched samples one RR set into the s.touched scratch buffer and
// returns its root. ok is false when no node is alive. The buffer is only
// valid until the next draw.
//
// Under IC, each in-edge (u,v) is traversed (reverse direction) with its
// probability — equivalent to sampling a realization and collecting the
// nodes that reach the root, but only exploring the reverse cone. This is
// the per-edge reference traversal; bulk IC generation on compressed
// graphs runs appendFastIC instead (see appendSets). Under LT, each
// visited node picks at most one in-parent; the uniform fast path inverts
// the pick in O(1) instead of a linear prefix scan.
func (s *sampler) drawTouched() (root graph.NodeID, ok bool) {
	alive := s.res.AliveList()
	if len(alive) == 0 {
		return 0, false
	}
	root = alive[s.r.Intn(len(alive))]
	s.touched = s.touched[:0]
	s.skipAlive = len(alive) == s.res.FullN()
	s.pushNode(root)
	g := s.res.Graph()
	if s.model == cascade.LT && !s.noFast && g.InUniform() {
		s.traverseFastLT(g)
	} else {
		s.traverseRef(g)
	}
	s.visits += uint64(len(s.touched))
	// Clear scratch for the next draw.
	for _, u := range s.touched {
		s.visited[u] = false
	}
	return root, true
}

// traverseFastLT runs the reverse walk under LT on a graph with compressed
// in-probabilities: the prefix scan picks srcs[i] iff x lands in
// [i·p, (i+1)·p), which inverts to one division per visit.
func (s *sampler) traverseFastLT(g *graph.Graph) {
	for head := 0; head < len(s.touched); head++ {
		v := s.touched[head]
		srcs, p, _ := g.InNeighborsUniform(v)
		if len(srcs) == 0 {
			continue
		}
		if idx := s.r.PrefixPick(p, len(srcs)); idx >= 0 {
			s.edgeTouches++
			s.pushNode(srcs[idx])
		}
	}
}

// traverseRef is the per-edge reference traversal: used on mixed
// in-probability graphs and by equivalence tests on any graph.
func (s *sampler) traverseRef(g *graph.Graph) {
	for head := 0; head < len(s.touched); head++ {
		v := s.touched[head]
		srcs, ps := g.InNeighbors(v)
		switch s.model {
		case cascade.IC:
			s.edgeTouches += uint64(len(srcs))
			for i, u := range srcs {
				if s.r.Coin(ps[i]) {
					s.pushNode(u)
				}
			}
		case cascade.LT:
			x := s.r.Float64()
			acc := 0.0
			for i, u := range srcs {
				acc += ps[i]
				s.edgeTouches++
				if x < acc {
					s.pushNode(u)
					break
				}
			}
		}
	}
}

// maxRejectK bounds the success count up to which a uniform k-subset of
// positions is drawn by rejection against a tiny fixed buffer; larger
// counts switch to a partial Fisher-Yates over the perm scratch.
const maxRejectK = 8

// pickPositions draws k distinct uniform positions in [0, d) from the
// sampler's stream, appending to buf when it fits and spilling to the
// perm scratch otherwise. The returned slice is valid until the next call.
func (s *sampler) pickPositions(d, k int, buf []int32) []int32 {
	r := s.r
	out := buf
	if k > cap(out) || k >= d {
		if cap(s.perm) < d {
			s.perm = make([]int32, d)
		}
		out = s.perm[:0]
	}
	switch {
	case k >= d:
		for i := 0; i < d; i++ {
			out = append(out, int32(i))
		}
	case k == 2: // the overwhelmingly common multi-success count
		i := int32(r.Intn(d))
		j := int32(r.Intn(d))
		for j == i {
			j = int32(r.Intn(d))
		}
		out = append(out, i, j)
	case k <= maxRejectK:
		for c := 0; c < k; {
			i := int32(r.Intn(d))
			dup := false
			for j := 0; j < c; j++ {
				if out[j] == i {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			out = append(out, i)
			c++
		}
	default:
		// Partial Fisher-Yates over the scratch permutation.
		perm := s.perm[:d]
		for i := range perm {
			perm[i] = int32(i)
		}
		for c := 0; c < k; c++ {
			j := c + r.Intn(d-c)
			perm[c], perm[j] = perm[j], perm[c]
		}
		out = perm[:k]
	}
	return out
}

// pushNode adds u to the RR set under construction if it is alive and not
// yet visited.
func (s *sampler) pushNode(u graph.NodeID) {
	if s.visited[u] || (!s.skipAlive && !s.res.Alive(u)) {
		return
	}
	s.visited[u] = true
	s.touched = append(s.touched, u)
}

// appendSets is the bulk draw loop of every samplerPool worker: IC on
// compressed graphs runs appendFastIC, which hoists the per-draw
// dispatch out of the hot path; every other case draws through
// drawTouched.
func (s *sampler) appendSets(c *Collection, count int) {
	if meta, arena, thr, tabOff := s.res.Graph().InSamplerTables(); meta != nil && !s.noFast && s.model == cascade.IC {
		s.appendFastIC(c, count, meta, arena, thr, tabOff)
		return
	}
	for i := 0; i < count; i++ {
		root, ok := s.drawTouched()
		if !ok {
			return
		}
		c.growArena(len(c.arena) + len(s.touched))
		c.AddSet(root, s.touched)
	}
}

// appendFastIC is the IC kernel on graphs with compressed
// in-probabilities (graph.InUniform), and the only one production runs
// there. A visit runs in O(successes) RNG draws instead of O(in-degree):
// the success count is drawn before the adjacency is touched — one
// success-count table draw, so a zero count (the most likely outcome
// under weighted cascade) finishes the visit on the metadata alone — and
// the successes are placed uniformly, the same joint distribution as one
// independent coin per edge up to the tables' 2^-32 quantization. Nodes
// without a table take a geometric jump run or per-edge coins. The
// per-draw prologue (alive list, graph, mode dispatch) is hoisted into
// locals across the whole batch and per-visit state is read through the
// packed InSamplerTables metadata — one random load per visit instead of
// three. The in-arena has two tiers (graph.Arena); the one- and
// two-success paths resolve the tier of each entry they read through
// Arena.At, and larger counts resolve the run's tier once through
// Arena.Run. TestFastICMatchesReferenceChiSquare checks the kernel
// against the per-edge reference traversal.
func (s *sampler) appendFastIC(c *Collection, count int, meta []graph.InMeta, inArena graph.Arena[graph.NodeID], thr []uint32, tabOff []int32) {
	res := s.res
	alive := res.AliveList()
	if len(alive) == 0 {
		return
	}
	g := res.Graph()
	r := s.r
	visited := s.visited
	full := res.FullN()
	skipAlive := len(alive) == full
	var posBuf [maxRejectK]int32
	for i := 0; i < count; i++ {
		// Build the set in the arena tail in place. A set that outgrows
		// the arena's spare capacity is moved by append to a fresh buffer,
		// and copied in below once the arena has grown by what it holds.
		base := len(c.arena)
		touched := c.arena[base:base]
		root := alive[r.Intn(len(alive))]
		visited[root] = true
		touched = append(touched, root)
		for head := 0; head < len(touched); head++ {
			v := touched[head]
			mv := meta[v]
			u32 := r.Uint32()
			if u32 == countSentinel {
				u32-- // keep the sentinel an unconditional terminator
			}
			if u32 < mv.Thr0 {
				continue // zero successes (or zero degree): metadata only
			}
			if u32 < mv.Thr1 {
				// Exactly one success — like the zero case, resolved on the
				// metadata alone, no table access. (Table-less nodes store
				// Thr1 = 0 and can never land here.)
				s.edgeTouches++
				u := inArena.At(mv.Start + int32(r.Intn(int(mv.Deg))))
				if !visited[u] && (skipAlive || res.Alive(u)) {
					visited[u] = true
					touched = append(touched, u)
				}
				continue
			}
			toff := tabOff[v]
			if toff < 0 {
				// Rare shapes without a table: certain edges, a geometric
				// jump run while p is small enough for jumps to pay (one
				// jump costs ~6 coin flips, see jumpMaxP), or per-edge
				// coins. (The count draw above is discarded; these nodes
				// set Thr0 = Thr1 = 0.)
				srcs, p, _ := g.InNeighborsUniform(v)
				d := len(srcs)
				switch {
				case d == 0:
				case p >= 1:
					s.edgeTouches += uint64(d)
					for _, u := range srcs {
						if !visited[u] && (skipAlive || res.Alive(u)) {
							visited[u] = true
							touched = append(touched, u)
						}
					}
				case p <= jumpMaxP:
					inv := 1 / math.Log1p(-p)
					for pos := r.GeometricInv(inv, d); pos < d; pos += 1 + r.GeometricInv(inv, d) {
						s.edgeTouches++
						u := srcs[pos]
						if !visited[u] && (skipAlive || res.Alive(u)) {
							visited[u] = true
							touched = append(touched, u)
						}
					}
				default:
					s.edgeTouches += uint64(d)
					for _, u := range srcs {
						if r.Coin(p) && !visited[u] && (skipAlive || res.Alive(u)) {
							visited[u] = true
							touched = append(touched, u)
						}
					}
				}
				continue
			}
			// Two or more successes: count k = |{j : u32 >= thr[j]}|.
			// Entries 1..4 (tables are sentinel-padded to at least five)
			// are compared branchlessly — the count distribution makes a
			// scanning branch mispredict constantly; the arithmetic compare
			// (borrow bit of u32-t) costs a fixed ~2 ops per entry instead.
			t4 := thr[toff+1 : toff+5]
			u64 := uint64(u32)
			lt := (u64-uint64(t4[0]))>>63 + (u64-uint64(t4[1]))>>63 +
				(u64-uint64(t4[2]))>>63 + (u64-uint64(t4[3]))>>63
			k := 5 - int(lt)
			if k == 5 { // rare heavy tail: finish with the scalar scan
				for _, t := range thr[toff+5:] { // stops at the sentinel
					if u32 < t {
						break
					}
					k++
				}
			}
			if k == 2 && mv.Deg > 2 {
				s.edgeTouches += 2
				i := int32(r.Intn(int(mv.Deg)))
				j := int32(r.Intn(int(mv.Deg)))
				for j == i {
					j = int32(r.Intn(int(mv.Deg)))
				}
				u := inArena.At(mv.Start + i)
				if !visited[u] && (skipAlive || res.Alive(u)) {
					visited[u] = true
					touched = append(touched, u)
				}
				u = inArena.At(mv.Start + j)
				if !visited[u] && (skipAlive || res.Alive(u)) {
					visited[u] = true
					touched = append(touched, u)
				}
				continue
			}
			srcs := inArena.Run(mv.Start, mv.Deg)
			s.edgeTouches += uint64(k)
			for _, pos := range s.pickPositions(len(srcs), k, posBuf[:0]) {
				u := srcs[pos]
				if !visited[u] && (skipAlive || res.Alive(u)) {
					visited[u] = true
					touched = append(touched, u)
				}
			}
		}
		s.visits += uint64(len(touched))
		for _, u := range touched {
			visited[u] = false
		}
		if len(touched) <= cap(c.arena)-base {
			c.commitSet(root, len(touched))
		} else {
			c.growArena(base + len(touched))
			c.AddSet(root, touched)
		}
	}
}
