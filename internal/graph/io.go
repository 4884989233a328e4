package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text edge-list format, one record per line:
//
//	# comment
//	n <nodes> <directed|undirected>
//	<from> <to> <probability>
//
// The header line must come before any edge. Probabilities may be omitted
// when the file will be re-weighted after load (they default to 1).
// This mirrors the SNAP-style edge lists the paper's datasets ship in,
// with an explicit header so files are self-describing.

// MaxReadNodes bounds the node count Read accepts from a header. The
// builder allocates O(n) on Build, so an absurd declared count in a
// malformed (or hostile) file must fail with an error instead of an
// allocation blow-up. 1<<27 ≈ 134M nodes — 27× livejournal — keeps every
// legitimate dataset loadable.
const MaxReadNodes = 1 << 27

// Write serializes g in the text edge-list format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	kind := "directed"
	if !g.Directed() {
		kind = "undirected"
	}
	if _, err := fmt.Fprintf(bw, "n %d %s\n", g.N(), kind); err != nil {
		return err
	}
	for u := int32(0); u < int32(g.N()); u++ {
		adj, ps := g.OutNeighbors(u)
		for i, v := range adj {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, ps.Of(i, v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses the text edge-list format into a Graph.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var b *Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "n" {
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: header wants 'n <count> <directed|undirected>'", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[1])
			}
			if n > MaxReadNodes {
				return nil, fmt.Errorf("graph: line %d: node count %d exceeds limit %d", line, n, MaxReadNodes)
			}
			var directed bool
			switch fields[2] {
			case "directed":
				directed = true
			case "undirected":
				directed = false
			default:
				return nil, fmt.Errorf("graph: line %d: bad graph type %q", line, fields[2])
			}
			b = NewBuilder(n, directed)
			continue
		}
		if b == nil {
			return nil, fmt.Errorf("graph: line %d: edge before header", line)
		}
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want '<from> <to> [p]', got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q", line, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q", line, fields[1])
		}
		p := 1.0
		if len(fields) == 3 {
			p, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad probability %q", line, fields[2])
			}
		}
		if err := b.AddEdge(NodeID(u), NodeID(v), p); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input (no header)")
	}
	return b.Build(), nil
}
