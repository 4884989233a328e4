package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
)

// graphDigest hashes everything a generated graph exposes through the
// exported API: N, M, the maximum in-degree and the storage kind, every
// edge of Edges() in its order, every node's in-run (sources and
// probabilities, in order) and its success-count thresholds up to the
// sentinel. Two graphs with equal digests are interchangeable for every
// consumer in the repository.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	put(uint64(g.M()))
	put(uint64(g.MaxInDegree()))
	if g.InUniform() {
		put(1)
	}
	for _, e := range g.Edges() {
		put(uint64(uint32(e.From))<<32 | uint64(uint32(e.To)))
		put(math.Float64bits(e.P))
	}
	for v := int32(0); v < int32(g.N()); v++ {
		srcs, ps := g.InNeighbors(v)
		put(uint64(len(srcs)))
		for i, u := range srcs {
			put(uint64(uint32(u)))
			put(math.Float64bits(ps[i]))
		}
		// The table runs to its sentinel; InCountThresholds returns the
		// rest of the shared arena past it.
		for _, t := range g.InCountThresholds(v) {
			put(uint64(t))
			if t == ^uint32(0) {
				break
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// generateGolden pins the digest of every stand-in × model × directedness
// at scale 0.01, recorded before graph construction moved from comparison
// sorts and hash maps to counting sorts. Any change to the generators'
// random streams, the dedup rule or the CSR layout shows up here.
var generateGolden = map[string]string{
	"nethept-s/erdos-renyi/directed=true":      "bb96958b08d2c2906d96f3bca9837eaad2f1f28b65d7dc860f98a88c7c581855",
	"nethept-s/erdos-renyi/directed=false":     "ea02266767c440eb62ff457aca1c27bc34a172d9d013b47e4277ae2fc93ebc9d",
	"nethept-s/pref-attach/directed=true":      "48c88cab65466220a06625f93923515cf1baad5c669a885f2c68b9746a3aaa77",
	"nethept-s/pref-attach/directed=false":     "8b558dc264177c919ab5105b680e8e9f21e75ebbaac7b2749769110596948827",
	"nethept-s/small-world/directed=true":      "58a7691f9a861268fee160e56618219caa0a998f98e2f920b6fd7de29731974f",
	"nethept-s/small-world/directed=false":     "4dddcaa2108fd5ea2190abfc9350328eb6ac99478c27358864182d0bf4d3a323",
	"nethept-s/power-law/directed=true":        "40041da6dddb7848608589551df6601e7ace83a868293e30f75b2e5834ba92a1",
	"nethept-s/power-law/directed=false":       "62d27bffd0c06a7ffecccb85a654c702623dbcc0f3be0a8895979824569c2de0",
	"epinions-s/erdos-renyi/directed=true":     "7a9dc97032a7c06cf3a4683c66d64db97b4f56d7cdbbb48cd38bac4fdf8f6dcf",
	"epinions-s/erdos-renyi/directed=false":    "a2c8ac7fcfc63031c1663c5736e2397f2b2bc8cedc4ce85f6fce363345fd31d8",
	"epinions-s/pref-attach/directed=true":     "367562598c7517d7ab3e463cbc7e542f1d27eee0ed689dd58646043de9a93865",
	"epinions-s/pref-attach/directed=false":    "8c85c53b1520267712304675fb5055346bb316f110cd1f4279fe89060899e950",
	"epinions-s/small-world/directed=true":     "99a8c1933081a443ff69dfed1b82183119c5bd51e728c5321cc5948a9bf6eb60",
	"epinions-s/small-world/directed=false":    "bcc82d5de86fdc023dfd1c08cd3e9906d3d0588c56452f628bd6a9206a92c795",
	"epinions-s/power-law/directed=true":       "943b1ca49ffef44635971038922a95eb6f592ca0a6d1150626bd046cce1b1de0",
	"epinions-s/power-law/directed=false":      "fc899ae01035c0cd2b28f6a7755d2cc0344dcccb707e76c669af21185cfc81b0",
	"dblp-s/erdos-renyi/directed=true":         "8ff4fe36297af04d87c046dd1d21c8a38c82172176e4a08a8e96eef7cc02e8eb",
	"dblp-s/erdos-renyi/directed=false":        "cb16b194a89cb19fcecc0d08bd850f77ce93869429e85f887ec38fe3c3b99e51",
	"dblp-s/pref-attach/directed=true":         "20be4a5250f9c07f10c7cc0005a8780f2034e33942d248a13708071e2b13ffc4",
	"dblp-s/pref-attach/directed=false":        "80c03dac28e83d1e310d13df5a42d8c2e9f2ef6a9d6467005baef969189ca72e",
	"dblp-s/small-world/directed=true":         "176443727579bd7a6f70cfd013b7469a643612a35843df384616cd961c968927",
	"dblp-s/small-world/directed=false":        "bd3b2ca46589cde4abe71cd34020319f1c75d44af77522546608cde244128875",
	"dblp-s/power-law/directed=true":           "b9d6a8b07f37198d6842bc2a553cf2e67de598d2ed972652697a2eb7cf7a4f0a",
	"dblp-s/power-law/directed=false":          "9b7ae2bce756e5e22d4d7dd79c698c893253736e52f9d9d3ead449d501d14ffa",
	"livejournal-s/erdos-renyi/directed=true":  "0a081fbe6d43a94283ea9ddbcbc5e4b8ee80994225b5ff5190f51a41aabf8227",
	"livejournal-s/erdos-renyi/directed=false": "443e1ac965aae852cd83744a0dfa86ac5ceff720d46219098ff6657c9daeaa47",
	"livejournal-s/pref-attach/directed=true":  "07b2c5a863894d633c74a84898d68ec8ff51b160942ed7d158ffc9980c97abf1",
	"livejournal-s/pref-attach/directed=false": "a0c5230decabd579724488f0e744eea5048298fbd754715f75fe45c0d6258828",
	"livejournal-s/small-world/directed=true":  "ec27f285d42d4ef228a55138802bcb395e0a5a2c630731c5f69bbe44047f6ff4",
	"livejournal-s/small-world/directed=false": "772d86e94e244862d1523151ff02d9c3af0ef1fd37a74fb87bd0c2722effe17f",
	"livejournal-s/power-law/directed=true":    "955c655afaaf5a51d83b7ac3c987d29e8793092504034933a0297cf6f3ec31eb",
	"livejournal-s/power-law/directed=false":   "7a07152e584f1c11d0f0e1f3e39e4fb1179f17ac6893cfd3db6e612efb8f1ad5",
}

func TestGenerateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 32 graphs up to 1.4M edges")
	}
	for _, d := range Datasets {
		for _, model := range []Model{ErdosRenyi, PrefAttach, SmallWorld, PowerLawConfig} {
			for _, directed := range []bool{true, false} {
				cfg := d.Config(0.01)
				cfg.Model, cfg.Directed = model, directed
				name := fmt.Sprintf("%s/%v/directed=%v", d.Name, model, directed)
				g, err := Generate(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := graphDigest(g)
				if want := generateGolden[name]; got != want {
					t.Errorf("%s: digest %s, want %s", name, got, want)
				}
			}
		}
	}
}
