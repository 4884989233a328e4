package graph

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// DeltaResult summarizes one applied edge delta.
type DeltaResult struct {
	// Touched lists — sorted, deduplicated — the target endpoints of every
	// inserted or deleted edge. These are exactly the nodes whose presence
	// in a reverse-reachable set makes that set stale: reverse sampling
	// examines edge (u,v) iff it visits v, so an RR set that avoids every
	// touched node has the same distribution on the old and new topology.
	Touched []NodeID
	// Inserted and Deleted count the directed edges added and removed.
	Inserted int
	Deleted  int
}

// lineage is the arena state shared by a chain of graphs derived from one
// another in place. tip holds the linGen of the one graph that may append
// to the shared arenas: the last graph derived in place.
type lineage struct {
	tip atomic.Uint64
}

// ApplyDelta derives a new immutable Graph from g with the given directed
// edges inserted and deleted, without rebuilding from scratch. Nodes the
// delta does not touch keep their adjacency runs where they are; each
// touched node gets a freshly merged run, appended past the end of the
// arenas g shares with its lineage, and only the per-node arrays are
// copied and patched at the touched nodes. The compressed in-probability
// tables are patched per touched node too: a new (degree, probability)
// pair appends its table to the lineage's table arena and clones the
// pair index, and tables no node references anymore are kept as garbage,
// bounded by the number of distinct pairs ever seen.
//
// Appending in place needs the lineage-tip claim: after validating the
// delta, ApplyDelta atomically moves the claim from g to the new graph,
// and appends in place only if that succeeds and the arenas have room.
// When g is not the tip — a sibling derived from a shared base, as the
// first delta of every campaign and of every checkpoint replay is;
// Builder output has no lineage at all — or the in-probability storage
// changes mode, it
// compacts the live runs into new arenas with doubled capacity, which
// start a new lineage. With the claim held, a direction whose arena is
// full, or would pass twice the live edge count, is compacted alone, and
// the new graph stays the tip. Writes only ever land past the visible
// length of every older graph, so g and all its ancestors stay unchanged
// and safe for concurrent readers, including concurrent ApplyDelta calls
// on the same g. A delta costs O(N + Δ·deg) plus the amortized
// compactions, and no arena holds more than twice its live entries.
//
// The result is structurally identical — per node — to Builder.Build on
// the edited edge list (g.Edges() minus the first matching occurrence of
// each delete, then the inserts): the same runs in the same order, the
// same probabilities, tables and sampler metadata (Deg, Thr0, Thr1),
// though the runs sit at other arena positions. Parallel edges agree too,
// since Build keeps equal (From, To) pairs in input order and a merged
// run puts base entries ahead of equal inserts. Same-seed RR draws on the
// delta graph and on a full rebuild are therefore bit-identical.
//
// Inserts are validated like Builder.AddEdge (endpoints in range, no
// self-loops, probability in (0,1]; the negated comparison also rejects
// NaN). Each delete must match an existing edge by (From, To) — its P is
// ignored — and consumes one occurrence; deleting more copies than exist
// is an error. Deletes apply to g only: an edge inserted and deleted in
// the same batch is an error unless g already holds a matching edge.
// Probabilities of surviving edges are untouched — callers emulating
// weighted-cascade semantics must supply insert probabilities themselves.
//
// A delta that breaks a node's shared in-probability demotes the whole
// graph to per-edge storage, and one that restores uniformity on a
// per-edge graph re-compresses — in both cases matching what Build would
// produce on the edited edge list.
//
// The returned graph's Epoch is g.Epoch()+1.
func (g *Graph) ApplyDelta(inserts, deletes []Edge) (*Graph, *DeltaResult, error) {
	for _, e := range inserts {
		if e.From < 0 || e.From >= g.n || e.To < 0 || e.To >= g.n {
			return nil, nil, fmt.Errorf("graph: insert (%d,%d) out of range [0,%d)", e.From, e.To, g.n)
		}
		if e.From == e.To {
			return nil, nil, fmt.Errorf("graph: self-loop insert on node %d rejected", e.From)
		}
		if !(e.P > 0 && e.P <= 1) { // negated form also rejects NaN
			return nil, nil, fmt.Errorf("graph: insert (%d,%d) probability %v outside (0,1]", e.From, e.To, e.P)
		}
	}
	for _, e := range deletes {
		if e.From < 0 || e.From >= g.n || e.To < 0 || e.To >= g.n {
			return nil, nil, fmt.Errorf("graph: delete (%d,%d) out of range [0,%d)", e.From, e.To, g.n)
		}
	}
	newM := g.m + int64(len(inserts)) - int64(len(deletes))
	if newM > math.MaxInt32 {
		return nil, nil, fmt.Errorf("graph: delta grows the graph past %d edges", math.MaxInt32)
	}
	out := g.groupEdits(inserts, deletes, false)
	if err := g.checkDeletes(&out); err != nil {
		return nil, nil, err
	}
	in := g.groupEdits(inserts, deletes, true)

	// Settle the in-probability storage: the new graph is uniform exactly
	// when no node's in-edges mix probabilities, which only the touched
	// nodes can have changed.
	probs := make([]float64, len(in.nodes))
	mixed := g.mixedIn
	for i := range in.nodes {
		p, shared, wasShared := g.inRunProb(&in, i)
		probs[i] = p
		if !shared {
			mixed++
		}
		if !wasShared {
			mixed--
		}
	}
	uniform := mixed == 0

	ng := &Graph{
		n: g.n, m: newM, directed: g.directed, epoch: g.epoch + 1,
		uniformIn: uniform, mixedIn: mixed,
	}
	// Claim the lineage tip, then place each direction's runs: appended in
	// place when the claim holds and the arenas have room, else compacted
	// into fresh arenas with doubled capacity. The claim is not even tried
	// across a storage-mode change, which rewrites the in-side anyway. The
	// two directions share no state, so the out-runs are placed on a
	// second goroutine.
	claimed := g.lin != nil && uniform == g.uniformIn && g.lin.tip.CompareAndSwap(g.linGen, g.linGen+1)
	if claimed {
		ng.lin, ng.linGen = g.lin, g.linGen+1
	} else {
		ng.lin = &lineage{}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ng.placeOut(g, &out, claimed)
	}()
	ng.placeIn(g, &in, probs, claimed)
	wg.Wait()
	return ng, &DeltaResult{Touched: in.nodes, Inserted: len(inserts), Deleted: len(deletes)}, nil
}

// placeOut lays out ng's out-runs: in place past g's arenas when claimed
// and they have room, else compacted into fresh ones.
func (ng *Graph) placeOut(g *Graph, out *runEdits, claimed bool) {
	ng.outRun = slices.Clone(g.outRun)
	set := func(v NodeID, start, deg int32) { ng.outRun[v] = span{start, deg} }
	if n := len(g.outAdj) + out.newLen(g.outRange); claimed && n <= cap(g.outAdj) && n <= cap(g.outP) && n <= int(2*ng.m) {
		ng.outAdj, ng.outP = g.relayout(out, g.outSource(), false, g.outAdj, g.outP, true, set)
		return
	}
	c := int(min(2*ng.m, math.MaxInt32))
	ng.outAdj, ng.outP = g.relayout(out, g.outSource(), true, make([]NodeID, 0, c), make([]float64, 0, c), true, set)
}

// placeIn lays out ng's in-runs like placeOut, then settles the
// in-probability storage and the cached largest in-degree. probs holds
// each edited node's post-delta shared probability.
func (ng *Graph) placeIn(g *Graph, in *runEdits, probs []float64, claimed bool) {
	ng.inMeta = slices.Clone(g.inMeta)
	set := func(v NodeID, start, deg int32) { ng.inMeta[v].Start, ng.inMeta[v].Deg = start, deg }
	// Per-edge in-probabilities are written whenever either side of the
	// delta stores them.
	withP := !ng.uniformIn || !g.uniformIn
	var ps []float64
	if n := len(g.inAdj) + in.newLen(g.inRange); claimed && n <= cap(g.inAdj) && (ng.uniformIn || n <= cap(g.inP)) && n <= int(2*ng.m) {
		ng.inAdj, ps = g.relayout(in, g.inSource(), false, g.inAdj, g.inP, withP, set)
	} else {
		c := int(min(2*ng.m, math.MaxInt32))
		if withP {
			ps = make([]float64, 0, c)
		}
		ng.inAdj, ps = g.relayout(in, g.inSource(), true, make([]NodeID, 0, c), ps, withP, set)
	}
	switch {
	case ng.uniformIn && g.uniformIn:
		ng.patchTables(g, in, probs, claimed)
	case ng.uniformIn: // the delta restored uniformity: compress as Build would
		ng.compressInProbs(ps)
	default:
		ng.inP = ps
		if g.uniformIn { // demoted: per-edge metadata carries no thresholds
			for v := range ng.inMeta {
				ng.inMeta[v].Thr0, ng.inMeta[v].Thr1 = 0, 0
			}
		}
	}

	// The largest in-degree changes only at edited nodes; a full rescan is
	// needed only when the old maximum may have shrunk away.
	ng.maxInDeg = g.maxInDeg
	shrunk := false
	for _, v := range in.nodes {
		d := ng.inMeta[v].Deg
		ng.maxInDeg = max(ng.maxInDeg, d)
		shrunk = shrunk || (g.inMeta[v].Deg == g.maxInDeg && d < g.maxInDeg)
	}
	if shrunk && ng.maxInDeg == g.maxInDeg {
		ng.maxInDeg = 0
		for _, m := range ng.inMeta {
			ng.maxInDeg = max(ng.maxInDeg, m.Deg)
		}
	}
}

// runEdits groups one direction's edits by the node whose run they change
// (the source for out-runs, the target for in-runs). Within a node the
// neighbors are sorted by ID, the order of the runs themselves.
type runEdits struct {
	nodes  []NodeID  // sorted distinct nodes whose run changes
	delOff []int32   // nodes[i]'s deleted neighbors are del[delOff[i]:delOff[i+1]]
	insOff []int32   // nodes[i]'s inserted neighbors are ins[insOff[i]:insOff[i+1]]
	del    []NodeID  // deleted neighbors
	ins    []NodeID  // inserted neighbors
	insP   []float64 // probabilities of the inserted edges, parallel to ins
}

// groupEdits sorts the delta into runEdits for the out-runs, or for the
// in-runs when in is set.
func (g *Graph) groupEdits(inserts, deletes []Edge, in bool) runEdits {
	// One sort key per edit: the run's node in the high word, the
	// neighbor in the low word.
	key := func(e Edge) uint64 {
		node, nbr := e.From, e.To
		if in {
			node, nbr = nbr, node
		}
		return uint64(node)<<32 | uint64(nbr)
	}
	del := make([]uint64, len(deletes))
	for i, e := range deletes {
		del[i] = key(e)
	}
	slices.Sort(del)
	ins := make([]uint64, len(inserts))
	for i, e := range inserts {
		ins[i] = key(e)
	}
	slices.Sort(ins)
	// Each insert's probability goes to the next free slot of its key's
	// run of equal keys, so inserts of the same pair keep their input
	// order: a stable sort of the inserts for the price of sorting keys.
	insP := make([]float64, len(inserts))
	used := make([]int32, len(inserts))
	for _, e := range inserts {
		j, _ := slices.BinarySearch(ins, key(e))
		insP[j+int(used[j])] = e.P
		used[j]++
	}

	e := runEdits{
		nodes:  make([]NodeID, 0, len(ins)+len(del)),
		delOff: []int32{0}, insOff: []int32{0},
		del: make([]NodeID, 0, len(del)), ins: make([]NodeID, 0, len(ins)), insP: insP,
	}
	i, j := 0, 0
	for i < len(ins) || j < len(del) {
		var v NodeID
		switch {
		case j == len(del):
			v = NodeID(ins[i] >> 32)
		case i == len(ins):
			v = NodeID(del[j] >> 32)
		default:
			v = NodeID(min(ins[i], del[j]) >> 32)
		}
		for ; j < len(del) && NodeID(del[j]>>32) == v; j++ {
			e.del = append(e.del, NodeID(uint32(del[j])))
		}
		for ; i < len(ins) && NodeID(ins[i]>>32) == v; i++ {
			e.ins = append(e.ins, NodeID(uint32(ins[i])))
		}
		e.nodes = append(e.nodes, v)
		e.delOff = append(e.delOff, int32(len(e.del)))
		e.insOff = append(e.insOff, int32(len(e.ins)))
	}
	return e
}

// newLen returns the total length of the edited nodes' post-delta runs.
func (e *runEdits) newLen(runOf func(NodeID) (lo, hi int32)) int {
	n := len(e.ins) - len(e.del)
	for _, v := range e.nodes {
		lo, hi := runOf(v)
		n += int(hi - lo)
	}
	return n
}

// checkDeletes verifies, on the out-run edits, that every delete consumes
// a distinct existing edge. Out-adjacency is sorted by target, so the
// multiplicity check binary-searches.
func (g *Graph) checkDeletes(e *runEdits) error {
	for i, u := range e.nodes {
		dels := e.del[e.delOff[i]:e.delOff[i+1]]
		adj, _ := g.OutNeighbors(u)
		for k := 0; k < len(dels); {
			v, c := dels[k], 1
			for k+c < len(dels) && dels[k+c] == v {
				c++
			}
			lo := searchRun(adj, 0, v)
			hi := lo
			for hi < len(adj) && adj[hi] == v {
				hi++
			}
			if hi-lo < c {
				return fmt.Errorf("graph: delete (%d,%d) ×%d exceeds %d existing edge(s)",
					u, v, c, hi-lo)
			}
			k += c
		}
	}
	return nil
}

// searchRun returns the first index at or after lo in the sorted run
// whose ID is at least v.
func searchRun(run []NodeID, lo int, v NodeID) int {
	i, _ := slices.BinarySearch(run[lo:], v)
	return lo + i
}

// inRunProb reports the probability the in-edges of in-edit i share after
// the delta (0 when none survive; meaningless unless shared), and whether
// its in-edges shared one probability before and after the delta.
func (g *Graph) inRunProb(e *runEdits, i int) (p float64, shared, wasShared bool) {
	v := e.nodes[i]
	del := e.del[e.delOff[i]:e.delOff[i+1]]
	has := false
	shared, wasShared = true, true
	if g.uniformIn {
		if int(g.inMeta[v].Deg) > len(del) {
			p, has = g.inProb[v], true
		}
	} else {
		srcs, ps := g.InNeighbors(v)
		wasShared = sharedProb(ps)
		d := 0
		for k, u := range srcs {
			if d < len(del) && u == del[d] {
				d++
				continue
			}
			if !has {
				p, has = ps[k], true
			} else if ps[k] != p {
				shared = false
			}
		}
	}
	for _, q := range e.insP[e.insOff[i]:e.insOff[i+1]] {
		if !has {
			p, has = q, true
		} else if q != p {
			shared = false
		}
	}
	return p, shared, wasShared
}

// runSource is one direction of a graph as relayout reads its runs.
type runSource struct {
	runOf func(NodeID) (lo, hi int32)
	adj   []NodeID
	p     []float64 // per-edge probabilities parallel to adj, or nil
	nodeP []float64 // per-node probabilities when p is nil, or nil
}

func (g *Graph) outSource() runSource { return runSource{g.outRange, g.outAdj, g.outP, nil} }
func (g *Graph) inSource() runSource  { return runSource{g.inRange, g.inAdj, g.inP, g.inProb} }

// relayout appends one direction's post-delta runs to adj (and their
// probabilities to ps when withP) and records each placed run through
// setRun. With all set it places every node's run in node order — the
// compaction into fresh arenas; otherwise only the edited nodes' runs,
// past the end of the lineage arenas.
func (g *Graph) relayout(e *runEdits, src runSource, all bool, adj []NodeID, ps []float64, withP bool,
	setRun func(v NodeID, start, deg int32)) ([]NodeID, []float64) {
	place := func(v NodeID, i int) {
		lo, hi := src.runOf(v)
		run := src.adj[lo:hi]
		var runP []float64
		var p float64
		if src.p != nil {
			runP = src.p[lo:hi]
		} else if src.nodeP != nil {
			p = src.nodeP[v]
		}
		start := int32(len(adj))
		if i < 0 {
			adj = append(adj, run...)
			if withP {
				ps = appendProbs(ps, runP, p, len(run))
			}
		} else {
			adj, ps = mergeRun(adj, ps, withP, run, runP, p, e.del[e.delOff[i]:e.delOff[i+1]],
				e.ins[e.insOff[i]:e.insOff[i+1]], e.insP[e.insOff[i]:e.insOff[i+1]])
		}
		setRun(v, start, int32(len(adj))-start)
	}
	if !all {
		for i, v := range e.nodes {
			place(v, i)
		}
		return adj, ps
	}
	// Untouched runs lying back to back in the source move as one block,
	// unless their probabilities must be materialized per node.
	batch := !withP || src.p != nil
	blo, bhi := int32(0), int32(0)
	flush := func() {
		adj = append(adj, src.adj[blo:bhi]...)
		if withP {
			ps = append(ps, src.p[blo:bhi]...)
		}
		blo = bhi
	}
	i := 0
	for v := NodeID(0); v < g.n; v++ {
		switch lo, hi := src.runOf(v); {
		case i < len(e.nodes) && e.nodes[i] == v:
			flush()
			place(v, i)
			i++
		case !batch:
			place(v, -1)
		case lo == hi:
			setRun(v, int32(len(adj))+bhi-blo, 0)
		default:
			if lo != bhi {
				flush()
				blo, bhi = lo, lo
			}
			setRun(v, int32(len(adj))+lo-blo, hi-lo)
			bhi = hi
		}
	}
	flush()
	return adj, ps
}

// appendProbs appends a run's n probabilities: runP when per-edge, else n
// copies of the shared p.
func appendProbs(ps, runP []float64, p float64, n int) []float64 {
	if runP != nil {
		return append(ps, runP...)
	}
	k := len(ps)
	ps = slices.Grow(ps, n)[:k+n]
	for i := k; i < len(ps); i++ {
		ps[i] = p
	}
	return ps
}

// mergeRun appends one node's post-delta run: the base run minus one
// occurrence per deleted neighbor, plus the inserted ones, in neighbor
// order with base entries ahead of equal inserts. base, del and ins are
// all sorted by ID and every delete is known to match,
// so each edit binary-searches its position past the previous one and the
// base entries between edits move as one block. A delete removes the
// first matching base entry. Probabilities come from baseP, or the shared
// p when baseP is nil.
func mergeRun(adj []NodeID, ps []float64, withP bool, base []NodeID, baseP []float64, p float64,
	del, ins []NodeID, insP []float64) ([]NodeID, []float64) {
	i := 0 // base entries before i are placed or deleted
	emit := func(k int) {
		adj = append(adj, base[i:k]...)
		if withP {
			var runP []float64
			if baseP != nil {
				runP = baseP[i:k]
			}
			ps = appendProbs(ps, runP, p, k-i)
		}
		i = k
	}
	d, j := 0, 0
	for d < len(del) || j < len(ins) {
		if d < len(del) && (j == len(ins) || del[d] <= ins[j]) {
			emit(searchRun(base, i, del[d]))
			i++ // base[i] is the deleted edge
			d++
			continue
		}
		emit(searchRun(base, i, ins[j]+1))
		adj = append(adj, ins[j])
		if withP {
			ps = append(ps, insP[j])
		}
		j++
	}
	emit(len(base))
	return adj, ps
}

// patchTables carries g's compressed in-probability storage over to ng,
// whose in-runs are laid out, recomputing only the edited nodes: their
// per-node probability, table offset (reusing the table of any pair seen
// before along the lineage) and cached thresholds. Appending a new table
// writes past g's table arena, which only the lineage tip may do; a
// compacted ng starts a new lineage and must copy on its first append.
func (ng *Graph) patchTables(g *Graph, e *runEdits, probs []float64, claimed bool) {
	ng.inProb = slices.Clone(g.inProb)
	ng.inTabOff = slices.Clone(g.inTabOff)
	ng.inTabThr = g.inTabThr
	if !claimed {
		ng.inTabThr = slices.Clip(ng.inTabThr)
	}
	ng.tabIndex = g.tabIndex
	cloned := false
	for i, v := range e.nodes {
		ng.inProb[v] = probs[i]
		ng.inTabOff[v] = -1
		if d := ng.inMeta[v].Deg; d > 0 && probs[i] < 1 {
			k := tabKey{d, probs[i]}
			off, seen := ng.tabIndex[k]
			if !seen {
				if !cloned {
					ng.tabIndex = maps.Clone(ng.tabIndex)
					cloned = true
				}
				off = ng.addTable(k)
			}
			ng.inTabOff[v] = off
		}
		ng.setThresholds(v)
	}
}
