package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// churnGolden pins a 16-delta ChurnDeltas → ApplyDelta chain per graph:
// the digest of every drawn delta (counts and edges in order) followed by
// the final graph's graphDigest. epinions-s@0.5 at 0.1% churn is the
// graph and rate of the churn-epinions-lt benchmark workload (its LT
// campaigns draw on the same graph); nethept-s@1 at 1% is the
// ApplyDelta benchmark fixture's. Recorded before ChurnDeltas dropped its
// out-degree prefix array.
var churnGolden = map[string]string{
	"epinions-s@0.5/0.001": "2987897fe9e3965a50d282ee5c20b931dcb1c91c63a8b52babda2dd36654adc6",
	"nethept-s@1/0.01":     "0803584cb20d3b4e46a70265bc36695eaa2bca79f06dc068da2025a188bb4a91",
}

func TestChurnDeltasGolden(t *testing.T) {
	cases := []struct {
		name    string
		dataset string
		scale   float64
		frac    float64
	}{
		{"epinions-s@0.5/0.001", "epinions-s", 0.5, 0.001},
		{"nethept-s@1/0.01", "nethept-s", 1, 0.01},
	}
	for _, tc := range cases {
		ds, err := Lookup(tc.dataset)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Generate(ds.Config(tc.scale))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		for i := 0; i < 16; i++ {
			ins, dels := ChurnDeltas(g, tc.frac, rng.New(uint64(i)+1))
			put(uint64(len(ins)))
			put(uint64(len(dels)))
			for _, edges := range [][]graph.Edge{ins, dels} {
				for _, e := range edges {
					put(uint64(uint32(e.From))<<32 | uint64(uint32(e.To)))
					put(math.Float64bits(e.P))
				}
			}
			if g, _, err = g.ApplyDelta(ins, dels); err != nil {
				t.Fatalf("%s delta %d: %v", tc.name, i, err)
			}
		}
		h.Write([]byte(graphDigest(g)))
		if got := hex.EncodeToString(h.Sum(nil)); got != churnGolden[tc.name] {
			t.Errorf("%s: digest %s, want %s", tc.name, got, churnGolden[tc.name])
		}
	}
}
