package graph

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// Native fuzz targets for the two untrusted entry points: the edge-list
// parser (files come from disk) and Builder.Build (edges come from
// arbitrary callers). The contract under fuzzing: malformed input —
// unparsable lines, duplicate headers, out-of-range node ids,
// probabilities outside (0,1] including NaN — returns an error; it never
// panics, never OOMs on a hostile header, and anything accepted passes
// Validate and round-trips through Write/Read.

// fuzzMaxNodes bounds declared node counts during fuzzing so the O(n)
// CSR allocation stays cheap per exec (MaxReadNodes guards the real
// blow-up range; covering 1<<20..MaxReadNodes would only burn fuzz time
// allocating).
const fuzzMaxNodes = 1 << 12

func FuzzReadEdgeList(f *testing.F) {
	for _, s := range []string{
		"n 3 directed\n0 1 0.5\n1 2 1\n",
		"n 2 undirected\n0 1\n",
		"# comment\n\nn 4 directed\n0 1 0.25\n0 1 0.25\n2 3 0.125\n", // parallel edges
		"n 2 directed\n0 1 1.5\n",                                    // p > 1
		"n 2 directed\n0 1 -0.5\n",                                   // p < 0
		"n 2 directed\n0 1 NaN\n",                                    // NaN must error
		"n 2 directed\n0 1 0\n",                                      // p = 0
		"n 2 directed\n0 5 0.5\n",                                    // target out of range
		"n 2 directed\n-1 1 0.5\n",                                   // negative source
		"0 1 0.5\n",                                                  // edge before header
		"n 2 directed\nn 2 directed\n0 1 1\n",                        // duplicate header
		"n x directed\n",
		"n 2 bidirected\n",
		"n 2 directed\n0 0 1\n", // self-loop
		"n 2 directed\n0 1 abc\n",
		"n 999999999999 directed\n", // hostile node count
		"n 2 directed\n0 1 0.5 extra\n",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Pre-screen the declared node count: headers within
		// (fuzzMaxNodes, MaxReadNodes] are valid but make Build allocate
		// hundreds of MB per exec — legitimate, just too slow to fuzz.
		if n, ok := declaredNodes(input); ok && n > fuzzMaxNodes {
			t.Skip("valid but oversized for per-exec validation")
		}
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected: exactly what malformed input should get
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v\ninput: %q", err, input)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("writing accepted graph: %v", err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\nserialized: %q", err, buf.String())
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}

// declaredNodes extracts the node count of the first header line, if any.
func declaredNodes(input string) (int, bool) {
	for _, line := range strings.Split(input, "\n") {
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if fields[0] == "n" && len(fields) >= 2 {
			n, err := strconv.Atoi(fields[1])
			return n, err == nil
		}
		return 0, false // first record is not a header; Read will reject
	}
	return 0, false
}

// FuzzApplyDelta feeds hostile deltas — duplicate edges, deletes of absent
// edges, NaN/Inf/out-of-range probabilities, self-loops, endpoints past n —
// at a built graph. Contract: invalid deltas error (never panic) and leave
// the base graph untouched; accepted deltas produce a graph that passes
// Validate and is structurally identical to Builder.Build on the edited
// edge list (the flatten ≡ rebuild differential, weakened to shape checks
// only when the edit legitimately leaves parallel edges with distinct
// probabilities, whose relative order Build does not specify).
func FuzzApplyDelta(f *testing.F) {
	f.Add(6, []byte{0, 1, 32, 1, 2, 64, 2, 3, 100}, []byte{3, 4, 100, 3, 4, 100}, []byte{0, 1, 0}, byte(0))
	f.Add(5, []byte{0, 1, 40, 1, 2, 40}, []byte{}, []byte{3, 4, 0}, byte(1))   // absent delete
	f.Add(5, []byte{0, 1, 40, 1, 2, 40}, []byte{2, 3, 255}, []byte{}, byte(1)) // NaN insert
	f.Add(5, []byte{0, 1, 40, 1, 2, 40}, []byte{2, 2, 80}, []byte{}, byte(2))  // self-loop insert
	f.Add(8, bytes.Repeat([]byte{1, 2, 77}, 6), []byte{0, 9, 80, 3, 4, 254}, []byte{1, 2, 0, 1, 2, 0}, byte(1))
	f.Add(5, []byte{2, 3, 60, 4, 3, 60}, []byte{5, 3, 100}, []byte{}, byte(2)) // demote: (3,1) at 0.5 beside 0.3
	f.Add(5, []byte{2, 3, 60, 4, 3, 100}, []byte{}, []byte{4, 3, 0}, byte(0))  // restore: node 1's odd edge deleted
	f.Fuzz(func(t *testing.T, n int, base, ins, dels []byte, mode byte) {
		if n < 0 || n > fuzzMaxNodes || len(base) > 3*2048 || len(ins) > 3*256 || len(dels) > 3*256 {
			t.Skip()
		}
		b := NewBuilder(n, true)
		for i := 0; i+2 < len(base); i += 3 {
			// Errors are AddEdge's gates doing their job; FuzzBuilderBuild
			// already pins them, so just drop rejected edges here.
			_ = b.AddEdge(NodeID(int(base[i])-2), NodeID(int(base[i+1])-2), float64(base[i+2])/200)
		}
		b.Dedup() // keep the base parallel-free so delete matching is unambiguous
		switch mode % 3 {
		case 1:
			b.ApplyWeightedCascade()
		case 2:
			if err := b.ApplyUniformProbability(0.3); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		baseEdges := g.Edges()

		inserts := decodeDeltaEdges(ins)
		deletes := decodeDeltaEdges(dels)
		ng, dres, err := g.ApplyDelta(inserts, deletes)

		// The base graph must survive both outcomes bit-intact.
		if verr := g.Validate(); verr != nil {
			t.Fatalf("base graph corrupted by ApplyDelta: %v", verr)
		}
		if g.M() != int64(len(baseEdges)) || g.Epoch() != 0 {
			t.Fatalf("base graph mutated: m=%d epoch=%d", g.M(), g.Epoch())
		}
		if err != nil {
			return
		}

		if verr := ng.Validate(); verr != nil {
			t.Fatalf("accepted delta fails validation: %v", verr)
		}
		if want := int64(len(baseEdges)) + int64(len(inserts)) - int64(len(deletes)); ng.M() != want {
			t.Fatalf("delta graph has %d edges, want %d", ng.M(), want)
		}
		if ng.Epoch() != 1 || dres.Inserted != len(inserts) || dres.Deleted != len(deletes) {
			t.Fatalf("delta bookkeeping: epoch=%d result=%+v", ng.Epoch(), dres)
		}

		// Oracle edit: each delete consumes the first matching (From, To)
		// occurrence. ApplyDelta succeeded, so every delete must match.
		edited := append([]Edge{}, baseEdges...)
		for _, d := range deletes {
			found := -1
			for i, e := range edited {
				if e.From == d.From && e.To == d.To {
					found = i
					break
				}
			}
			if found < 0 {
				t.Fatalf("ApplyDelta accepted delete (%d,%d) absent from the edge list", d.From, d.To)
			}
			edited = append(edited[:found], edited[found+1:]...)
		}
		edited = append(edited, inserts...)
		// Build keeps equal (From, To) pairs in input order and ApplyDelta
		// puts base entries ahead of equal inserts, so the two agree even
		// on parallel edges with differing probabilities.
		want := MustFromEdges(n, true, edited)
		assertGraphsEquivalent(t, ng, want)
	})
}

// decodeDeltaEdges maps raw bytes to hostile delta edges: endpoints range
// past the node count (and below 0), probabilities cover 0, (0,1], >1, NaN
// and +Inf.
func decodeDeltaEdges(data []byte) []Edge {
	var edges []Edge
	for i := 0; i+2 < len(data); i += 3 {
		p := float64(data[i+2]) / 200 // 0 .. 1.265
		switch data[i+2] {
		case 255:
			p = math.NaN()
		case 254:
			p = math.Inf(1)
		}
		edges = append(edges, Edge{From: NodeID(int(data[i]) - 2), To: NodeID(int(data[i+1]) - 2), P: p})
	}
	return edges
}

func FuzzBuilderBuild(f *testing.F) {
	f.Add(5, true, []byte{0, 1, 32, 1, 2, 64, 2, 3, 255})
	f.Add(2, false, []byte{0, 1, 0})                     // p = 0 rejected
	f.Add(3, true, []byte{0, 0, 10})                     // self-loop rejected
	f.Add(1, true, []byte{0, 7, 10})                     // target out of range
	f.Add(64, true, []byte{9, 9, 9, 9})                  // trailing partial triple
	f.Add(0, true, []byte{})                             // empty graph
	f.Add(16, false, bytes.Repeat([]byte{1, 2, 77}, 40)) // heavy duplication
	f.Fuzz(func(t *testing.T, n int, directed bool, data []byte) {
		if n < 0 || n > fuzzMaxNodes {
			t.Skip()
		}
		b := NewBuilder(n, directed)
		added := 0
		// Each 3-byte triple is one AddEdge attempt; u/v deliberately
		// range past n to exercise the bounds checks, p past 1 (and to 0)
		// to exercise the probability gate.
		for i := 0; i+2 < len(data); i += 3 {
			u := NodeID(int(data[i]) - 2)
			v := NodeID(int(data[i+1]) - 2)
			p := float64(data[i+2]) / 200 // 0 .. 1.275
			if err := b.AddEdge(u, v, p); err == nil {
				added++
			} else if u >= 0 && int(u) < n && v >= 0 && int(v) < n && u != v && p > 0 && p <= 1 {
				t.Fatalf("in-range edge (%d,%d,%g) rejected: %v", u, v, p, err)
			}
		}
		if len(data) > 0 {
			switch data[0] % 4 {
			case 1:
				added -= b.Dedup()
			case 2:
				b.ApplyWeightedCascade()
			case 3:
				if err := b.ApplyUniformProbability(float64(data[0])/255 + 0.001); err != nil {
					t.Skip() // probability drifted out of range; gate did its job
				}
			}
		}
		g := b.Build()
		if g.N() != n {
			t.Fatalf("built graph has %d nodes, want %d", g.N(), n)
		}
		if g.M() != int64(added) {
			t.Fatalf("built graph has %d edges, want %d", g.M(), added)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails validation: %v", err)
		}
		assertMatchesSortReference(t, g, n, directed, b.edges)
	})
}
