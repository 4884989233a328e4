package graph

import "testing"

func TestComputeStatsFig1(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	s := ComputeStats(g)
	if s.N != 7 || s.M != 10 {
		t.Fatalf("N=%d M=%d", s.N, s.M)
	}
	if s.Type != "directed" {
		t.Fatalf("Type = %q", s.Type)
	}
	wantAvg := 10.0 / 7.0
	if diff := s.AvgDegree - wantAvg; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("AvgDegree = %v, want %v", s.AvgDegree, wantAvg)
	}
	if s.MaxOutDeg != 2 {
		t.Fatalf("MaxOutDeg = %d, want 2 (v2, v5, v6 all have 2)", s.MaxOutDeg)
	}
	if s.Isolated != 0 {
		t.Fatalf("Isolated = %d", s.Isolated)
	}
	if s.MinEdgeP != 0.2 || s.MaxEdgeP != 0.8 {
		t.Fatalf("edge p range [%v,%v], want [0.2,0.8]", s.MinEdgeP, s.MaxEdgeP)
	}
	if s.WeaklyConn != 1 {
		t.Fatalf("WeaklyConn = %d, want 1", s.WeaklyConn)
	}
}

func TestComputeStatsDisconnected(t *testing.T) {
	g := MustFromEdges(5, true, []Edge{{From: 0, To: 1, P: 0.5}, {From: 2, To: 3, P: 0.5}})
	s := ComputeStats(g)
	if s.WeaklyConn != 3 { // {0,1}, {2,3}, {4}
		t.Fatalf("WeaklyConn = %d, want 3", s.WeaklyConn)
	}
	if s.Isolated != 1 {
		t.Fatalf("Isolated = %d, want 1", s.Isolated)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if percentile(nil, 0.5) != 0 {
		t.Fatal("percentile of empty slice should be 0")
	}
	if percentile([]int{7}, 0.99) != 7 {
		t.Fatal("percentile of singleton")
	}
	s := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(s, 0.5); p != 5 {
		t.Fatalf("p50 = %d", p)
	}
	if p := percentile(s, 0.9); p != 9 {
		t.Fatalf("p90 = %d", p)
	}
}
