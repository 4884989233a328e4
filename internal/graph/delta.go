package graph

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
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

// lineage is the overflow state shared by a chain of graphs derived from
// one another in place. tip holds the linGen of the one graph that may
// append to the shared overflow tiers: the last graph derived in place.
type lineage struct {
	tip atomic.Uint64
}

// ApplyDelta derives a new immutable Graph from g with the given directed
// edges inserted and deleted, without rebuilding from scratch. Nodes the
// delta does not touch keep their adjacency runs where they are, in
// either tier; each touched node gets a freshly merged run in the
// overflow tier, and only the per-node arrays are copied and patched at
// the touched nodes. The base tiers are shared, never copied. The
// compressed in-probability tables are patched per touched node too: a
// new (degree, probability) pair appends its table to the lineage's
// table arena and clones the pair index, and tables no node references
// anymore are kept as garbage, bounded by the number of distinct pairs
// ever seen.
//
// Appending in place needs the lineage-tip claim: after validating the
// delta, ApplyDelta atomically moves the claim from g to the new graph,
// and a direction appends past the end of g's overflow only if that
// succeeds and the overflow has room. When g is not the tip — a sibling
// derived from a shared graph, as the first delta of every campaign and
// of every checkpoint replay is; Builder output has no lineage at all —
// or the probability storage changes mode, the new graph starts a new
// lineage. A direction that cannot append compacts only its
// overflow-resident runs, together with the touched ones, into a fresh
// overflow with room to grow (see layout). It folds base and overflow
// into a new, exactly sized base only when the probability storage
// changes mode (both directions then fold) or when the base plus that
// compacted overflow would pass twice the live entries. Writes only ever
// land past the visible length of every older graph, so g and all its
// ancestors stay unchanged and safe for concurrent readers, including
// concurrent ApplyDelta calls on the same g. A delta costs O(N + Δ·deg)
// plus the amortized compactions, and no direction holds more than twice
// its live entries.
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
// produce on the edited edge list. Either change folds both directions:
// a demotion gives every surviving out-edge (u, v) the probability
// g's in-side stored for v, and every insert its own; a restore drops the
// per-edge probabilities of both sides.
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
	// The two directions share no state: the out-side edits are grouped
	// and validated on a second goroutine while the in-side ones are
	// grouped and their probabilities settled here.
	var out runEdits
	var outErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out = g.groupEdits(inserts, deletes, false)
		outErr = g.checkDeletes(&out)
	}()
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
	wg.Wait()
	if outErr != nil {
		return nil, nil, outErr
	}

	ng := &Graph{
		n: g.n, m: newM, directed: g.directed, epoch: g.epoch + 1,
		uniformIn: uniform, mixedIn: mixed,
	}
	// Claim the lineage tip, then place each direction's runs, the
	// out-runs and the in-side tables on a second goroutine. The claim is
	// not even tried across a storage-mode change, which folds both sides
	// anyway.
	claimed := g.lin != nil && uniform == g.uniformIn && g.lin.tip.CompareAndSwap(g.linGen, g.linGen+1)
	if claimed {
		ng.lin, ng.linGen = g.lin, g.linGen+1
	} else {
		ng.lin = &lineage{}
	}
	tables := ng.uniformIn && g.uniformIn
	wg.Add(1)
	go func() {
		defer wg.Done()
		ng.placeOut(g, &out, uniform, claimed)
		if tables {
			ng.patchTables(g, &in, probs, claimed)
		}
	}()
	ng.placeIn(g, &in, probs, claimed)
	wg.Wait()
	if tables {
		for _, v := range in.nodes {
			ng.setThresholds(v)
		}
	}
	return ng, &DeltaResult{Touched: in.nodes, Inserted: len(inserts), Deleted: len(deletes)}, nil
}

// placeOut lays out ng's out-runs (see layout), with per-edge
// probabilities only when ng is not uniform, folding them when the
// storage mode changes. The mode comes as an argument: placeIn, running
// concurrently, settles ng's in-probability storage.
func (ng *Graph) placeOut(g *Graph, out *runEdits, uniform, claimed bool) {
	ng.outRun = slices.Clone(g.outRun)
	set := func(v NodeID, start, deg int32) { ng.outRun[v] = span{start, deg} }
	ng.outAdj, ng.outP, ng.outBaseLive = g.layout(out, g.outSource(), ng.m, claimed, uniform != g.uniformIn, !uniform, set)
}

// placeIn lays out ng's in-runs like placeOut, folding them when the
// storage mode changes, then settles the in-probability storage and the
// cached largest in-degree. probs holds each edited node's post-delta
// shared probability.
func (ng *Graph) placeIn(g *Graph, in *runEdits, probs []float64, claimed bool) {
	ng.inMeta = slices.Clone(g.inMeta)
	set := func(v NodeID, start, deg int32) { ng.inMeta[v].Start, ng.inMeta[v].Deg = start, deg }
	// Per-edge in-probabilities are written whenever either side of the
	// delta stores them.
	withP := !ng.uniformIn || !g.uniformIn
	var ps Arena[float64]
	ng.inAdj, ps, ng.inBaseLive = g.layout(in, g.inSource(), ng.m, claimed, ng.uniformIn != g.uniformIn, withP, set)
	switch {
	case ng.uniformIn && g.uniformIn: // ApplyDelta patches the tables
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

// layout places one direction's post-delta runs for a graph of newM
// edges, records every run it moves through setRun, and returns the new
// arenas (probabilities only when withP) and the live entries left in the
// base tier. The cheapest of three placements that keeps base plus
// overflow within twice the live entries wins:
//   - append: with the claim held, the edited runs go past the end of
//     g's overflow, which must have the capacity;
//   - compact: every overflow-resident run and every edited run move, in
//     node order, into a fresh overflow; the base stays shared. The new
//     overflow has room for its contents again, which amortizes each
//     compaction over the appends it makes room for. A tip that ran out
//     of room has shown its lineage keeps growing, so it also gets room
//     for at least eight more deltas of this one's size; a new lineage
//     (every campaign's first delta) gets no more than it needs;
//   - fold: every run moves, in node order, into a fresh exactly sized
//     base and the overflow empties. It is taken when forced by fold, or
//     when the compacted overflow and its room would not fit the bound.
func (g *Graph) layout(e *runEdits, src runSource, newM int64, claimed, fold, withP bool,
	setRun func(v NodeID, start, deg int32)) (Arena[NodeID], Arena[float64], int64) {
	split := int64(len(src.adj.Base))
	n, fromBase := e.sizes(src.runOf, int32(split))
	baseLive := src.baseLive - fromBase
	overLive := newM - baseLive // what a compacted overflow holds
	over, overP := src.adj.Over, src.p.Over
	end := len(over) + n
	switch {
	case !fold && claimed && end <= cap(over) && (!withP || end <= cap(overP)) && split+int64(end) <= 2*newM:
		over, overP = g.relayout(e, src, math.MaxInt32, int32(split), over, overP, withP, setRun)
	case !fold && split+2*overLive <= 2*newM:
		room := overLive
		if claimed {
			room = max(room, 8*int64(n))
		}
		c := min(overLive+room, 2*newM-split)
		over, overP = make([]NodeID, 0, c), nil
		if withP {
			overP = make([]float64, 0, c)
		}
		// Only runs in the old overflow move along with the edited ones;
		// with none there, the edited runs alone are placed.
		from := int32(split)
		if len(src.adj.Over) == 0 {
			from = math.MaxInt32
		}
		over, overP = g.relayout(e, src, from, int32(split), over, overP, withP, setRun)
	default:
		var base []float64
		if withP {
			base = make([]float64, 0, newM)
		}
		adj, ps := g.relayout(e, src, 0, 0, make([]NodeID, 0, newM), base, withP, setRun)
		return Arena[NodeID]{Base: adj}, Arena[float64]{Base: ps}, newM
	}
	return Arena[NodeID]{src.adj.Base, over}, Arena[float64]{src.p.Base, overP}, baseLive
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
	idBits := bits.Len32(uint32(g.n - 1))
	del := make([]uint64, len(deletes))
	for i, e := range deletes {
		del[i] = key(e)
	}
	radixSort(del, nil, idBits)
	// The sort is stable, so inserts of the same pair keep their input
	// order, probabilities and all.
	ins := make([]uint64, len(inserts))
	insP := make([]float64, len(inserts))
	for i, e := range inserts {
		ins[i], insP[i] = key(e), e.P
	}
	radixSort(ins, insP, idBits)

	e := runEdits{
		nodes:  make([]NodeID, 0, len(ins)+len(del)),
		delOff: make([]int32, 1, len(ins)+len(del)+1), insOff: make([]int32, 1, len(ins)+len(del)+1),
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

// radixSort sorts keys — node<<32 | neighbor pairs of IDs below 2^idBits
// — stably, permuting ps (if not nil) alongside. It makes one counting
// pass per byte of each half's idBits significant bits, cheaper than a
// comparison sort, whose comparisons mispredict on random keys.
func radixSort(keys []uint64, ps []float64, idBits int) {
	srcK, dstK := keys, make([]uint64, len(keys))
	var srcP, dstP []float64
	if ps != nil {
		srcP, dstP = ps, make([]float64, len(ps))
	}
	for _, half := range [2]int{0, 32} {
		for shift := half; shift < half+idBits; shift += 8 {
			var next [256]int
			for _, k := range srcK {
				next[byte(k>>shift)]++
			}
			sum := 0
			for d, c := range next {
				next[d] = sum
				sum += c
			}
			for i, k := range srcK {
				j := next[byte(k>>shift)]
				next[byte(k>>shift)]++
				dstK[j] = k
				if ps != nil {
					dstP[j] = srcP[i]
				}
			}
			srcK, dstK = dstK, srcK
			srcP, dstP = dstP, srcP
		}
	}
	if len(keys) > 0 && &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(ps, srcP)
	}
}

// sizes returns the total length of the edited nodes' post-delta runs and
// the entries their pre-delta runs held in the base tier, below split.
func (e *runEdits) sizes(runOf func(NodeID) (lo, hi int32), split int32) (n int, fromBase int64) {
	n = len(e.ins) - len(e.del)
	for _, v := range e.nodes {
		lo, hi := runOf(v)
		n += int(hi - lo)
		if lo < split {
			fromBase += int64(hi - lo)
		}
	}
	return n, fromBase
}

// checkDeletes verifies, on the out-run edits, that every delete consumes
// a distinct existing edge. Out-runs and each node's deletes are both
// sorted by target, so one forward scan per run counts the matches.
func (g *Graph) checkDeletes(e *runEdits) error {
	for i, u := range e.nodes {
		dels := e.del[e.delOff[i]:e.delOff[i+1]]
		if len(dels) == 0 {
			continue
		}
		adj := g.outAdj.Run(g.outRun[u].start, g.outRun[u].deg)
		k := 0
		for d := 0; d < len(dels); {
			v, c := dels[d], 1
			for d+c < len(dels) && dels[d+c] == v {
				c++
			}
			for k < len(adj) && adj[k] < v {
				k++
			}
			have := 0
			for ; k < len(adj) && adj[k] == v; k++ {
				have++
			}
			if have < c {
				return fmt.Errorf("graph: delete (%d,%d) ×%d exceeds %d existing edge(s)", u, v, c, have)
			}
			d += c
		}
	}
	return nil
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
	runOf    func(NodeID) (lo, hi int32)
	adj      Arena[NodeID]
	p        Arena[float64] // per-edge probabilities parallel to adj, unless shared is set
	shared   []float64      // compressed storage: the in-probability each node shares, or nil
	byTarget bool           // an entry's probability is shared[entry], not shared[the run's node]
	baseLive int64          // live entries in adj's base tier
}

func (g *Graph) outSource() runSource {
	return runSource{g.outRange, g.outAdj, g.outP, g.inProb, true, g.outBaseLive}
}

func (g *Graph) inSource() runSource {
	return runSource{g.inRange, g.inAdj, g.inP, g.inProb, false, g.inBaseLive}
}

// probs returns the probabilities of node v's run, which starts at lo:
// a view of the per-edge arena, or the shared ones written into *buf.
func (s *runSource) probs(v NodeID, run []NodeID, lo int32, buf *[]float64) []float64 {
	if s.shared == nil {
		return s.p.Run(lo, int32(len(run)))
	}
	ps := slices.Grow((*buf)[:0], len(run))[:len(run)]
	for k, u := range run {
		if !s.byTarget {
			u = v
		}
		ps[k] = s.shared[u]
	}
	*buf = ps
	return ps
}

// relayout appends one direction's post-delta runs to adj (and their
// probabilities to ps when withP), adj[0] sitting at position at, and
// records each placed run through setRun. It moves every edited run and
// every run starting at or past from, in node order, and leaves the rest
// where they are: from = 0 is the fold into a new base, from = the base
// length the compaction of the overflow, and from = math.MaxInt32 the
// append of the edited runs alone, which visits only them.
func (g *Graph) relayout(e *runEdits, src runSource, from, at int32, adj []NodeID, ps []float64, withP bool,
	setRun func(v NodeID, start, deg int32)) ([]NodeID, []float64) {
	pos := func() int32 { return at + int32(len(adj)) }
	var buf []float64 // a run's shared probabilities, written out
	place := func(v NodeID, i int) {
		lo, hi := src.runOf(v)
		run := src.adj.Run(lo, hi-lo)
		var runP []float64
		if withP {
			runP = src.probs(v, run, lo, &buf)
		}
		start := pos()
		if i < 0 {
			adj = append(adj, run...)
			ps = append(ps, runP...)
		} else {
			adj, ps = mergeRun(adj, ps, withP, run, runP, e.del[e.delOff[i]:e.delOff[i+1]],
				e.ins[e.insOff[i]:e.insOff[i+1]], e.insP[e.insOff[i]:e.insOff[i+1]])
		}
		setRun(v, start, pos()-start)
	}
	if from == math.MaxInt32 {
		for i, v := range e.nodes {
			place(v, i)
		}
		return adj, ps
	}
	// Unedited runs lying back to back in one tier of the source move as
	// one block, unless their probabilities must be written out per run.
	batch := !withP || src.shared == nil
	split := int32(len(src.adj.Base))
	blo, bhi := int32(0), int32(0)
	flush := func() {
		if bhi > blo {
			adj = append(adj, src.adj.Run(blo, bhi-blo)...)
			if withP {
				ps = append(ps, src.p.Run(blo, bhi-blo)...)
			}
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
		case lo < from:
		case !batch:
			place(v, -1)
		case lo == hi:
			setRun(v, pos()+bhi-blo, 0)
		default:
			if lo != bhi || lo == split {
				flush()
				blo, bhi = lo, lo
			}
			setRun(v, pos()+lo-blo, hi-lo)
			bhi = hi
		}
	}
	flush()
	return adj, ps
}

// mergeRun appends one node's post-delta run: its old run minus one
// occurrence per deleted neighbor, plus the inserted ones, in neighbor
// order with old entries ahead of equal inserts. old, del and ins are all
// sorted by ID and every delete is known to match, so each edit scans
// forward from the previous one for its position, and the old entries
// between edits move as one block. The run is copied whole anyway, so the
// scans cost no more than the copy. A delete removes the first matching
// old entry. When withP, oldP holds the old entries' probabilities.
func mergeRun(adj []NodeID, ps []float64, withP bool, old []NodeID, oldP []float64,
	del, ins []NodeID, insP []float64) ([]NodeID, []float64) {
	i := 0 // old entries before i are placed or deleted
	emit := func(k int) {
		adj = append(adj, old[i:k]...)
		if withP {
			ps = append(ps, oldP[i:k]...)
		}
		i = k
	}
	d, j := 0, 0
	for d < len(del) || j < len(ins) {
		if d < len(del) && (j == len(ins) || del[d] <= ins[j]) {
			k := i
			for old[k] < del[d] {
				k++
			}
			emit(k)
			i++ // old[i] is the deleted edge
			d++
			continue
		}
		k := i
		for k < len(old) && old[k] <= ins[j] {
			k++
		}
		emit(k)
		adj = append(adj, ins[j])
		if withP {
			ps = append(ps, insP[j])
		}
		j++
	}
	emit(len(old))
	return adj, ps
}

// patchTables carries g's compressed in-probability storage over to ng,
// recomputing only the edited nodes' per-node probability and table
// offset (reusing the table of any pair seen before along the lineage).
// It reads the post-delta degrees off the edits, so it runs alongside the
// in-run layout; ApplyDelta caches the edited nodes' thresholds in their
// metadata once both are done. Appending a new table writes past g's
// table arena, which only the lineage tip may do; an ng that starts a new
// lineage must copy on its first append.
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
		d := g.inMeta[v].Deg + (e.insOff[i+1] - e.insOff[i]) - (e.delOff[i+1] - e.delOff[i])
		if d > 0 && probs[i] < 1 {
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
	}
}
