package gen

import "testing"

// BenchmarkGenerate times the whole generator on dblp-s at scale 0.25
// (164k nodes, 982k directed edges): preferential attachment, Dedup, the
// weighted-cascade weighting and Build.
//
//	go test -run xxx -bench 'BenchmarkGenerate$' ./internal/gen/
func BenchmarkGenerate(b *testing.B) {
	ds, err := Lookup("dblp-s")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ds.Config(0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
