package imm

import (
	"fmt"
	"math"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/ris"
	"repro/internal/rng"
)

// Options configures IMM.
type Options struct {
	Eps   float64 // approximation slack ε; default 0.5 (coarse, fast)
	Model cascade.Model
	Seed  uint64
	// Workers for parallel RR generation; 0 means GOMAXPROCS. Greedy
	// selection (ris.GreedyMaxCoverage) is serial. Output is identical
	// for every worker count.
	Workers int
	// NoReuse draws a fresh RR collection for every lower-bound guess,
	// exactly as the pre-batcher implementation did (paper-faithful; what
	// `--sampler fixed` selects). By default the θ search keeps one
	// collection and tops it up from guess to guess — the guesses form a
	// doubling θ schedule on an unchanged residual, so growth reuses every
	// earlier sample and the LB phase draws roughly half the sets, at the
	// price of correlating the stopping tests across guesses (each guess's
	// certificate still holds marginally; the union bound over guesses
	// becomes conservative rather than exact). The selection phase always
	// draws fresh sets in both modes: reusing the LB samples there is the
	// known flaw of original IMM (θ is sized from an LB estimated on the
	// very samples selection would then greedily overfit), so that reuse
	// is never performed.
	NoReuse bool
}

func (o *Options) setDefaults() {
	if o.Eps <= 0 {
		o.Eps = 0.5
	}
}

// ell is IMM's failure exponent ℓ: the selection succeeds with
// probability at least 1 − 1/n^ℓ.
const ell = 1.0

// Result carries the selected seeds and diagnostics.
type Result struct {
	Seeds       []graph.NodeID
	SpreadLower float64 // certified lower bound on E[I(Seeds)] (n·cov/θ based)
	// Theta is the number of RR sets actually used in the selection phase
	// (Collection.Len()). ThetaRequested is what the theory asked for;
	// Theta < ThetaRequested means generation fell short (empty residual)
	// and the (1−1/e−ε) guarantee is weakened — callers must check.
	Theta          int
	ThetaRequested int
	TotalRR        int64 // RR sets drawn across both phases
	// PeakRRBytes is the largest arena footprint any phase's RR collection
	// reached (ris.Collection.Bytes); deterministic per seed.
	PeakRRBytes int64
}

// Select returns the (approximately) most influential k nodes of g.
func Select(g *graph.Graph, k int, opts Options) (*Result, error) {
	opts.setDefaults()
	n := g.N()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("imm: k=%d out of range (n=%d)", k, n)
	}
	if n == 0 {
		return nil, fmt.Errorf("imm: empty graph")
	}
	nf := float64(n)
	eps := opts.Eps
	// Boost ℓ so the union bound over the sampling phase holds
	// (ℓ' = ℓ·(1 + log 2 / log n) in the paper).
	ellP := ell
	if n > 1 {
		ellP = ell * (1 + math.Ln2/math.Log(nf))
	}
	logChooseNK := logChoose(n, k)

	r := rng.New(opts.Seed)
	res := graph.NewResidual(g)
	// One batcher spans the LB-guessing and selection phases: the pool's
	// worker scratch is shared either way, and by default the collection
	// is too — the θ search is a doubling schedule on an unchanged
	// residual, so each guess tops up the previous guess's sets instead of
	// redrawing them (NoReuse restores the fresh-per-guess draws).
	b := ris.NewBatcher(opts.Model)

	// Sampling phase: find LB.
	epsPrime := float64(math.Sqrt2 * eps)
	lambdaPrime := (2 + float64(2*epsPrime/3)) * (logChooseNK + float64(ellP*math.Log(nf)) + math.Log(math.Log2(math.Max(nf, 2)))) * nf / (epsPrime * epsPrime)
	lb := 1.0
	maxI := int(math.Ceil(math.Log2(nf))) - 1
	if maxI < 1 {
		maxI = 1
	}
	for i := 1; i <= maxI; i++ {
		x := nf / math.Exp2(float64(i))
		thetaI := int(math.Ceil(lambdaPrime / x))
		if opts.NoReuse && b.Collection() != nil {
			b.Collection().Reset()
		}
		if _, err := b.GrowTo(res, r, thetaI, opts.Workers); err != nil {
			return nil, err
		}
		collection := b.Collection()
		all := allNodes(n)
		seeds, cum := collection.GreedyMaxCoverage(all, k)
		if len(seeds) == 0 {
			break
		}
		frac := float64(cum[len(cum)-1]) / float64(collection.Len())
		if float64(nf*frac) >= float64((1+epsPrime)*x) {
			lb = nf * frac / (1 + epsPrime)
			break
		}
	}

	// Selection phase.
	alpha := math.Sqrt(float64(ellP*math.Log(nf)) + math.Ln2)
	beta := math.Sqrt((1 - 1/math.E) * (logChooseNK + float64(ellP*math.Log(nf)) + math.Ln2))
	lambdaStar := 2 * nf * sq(float64((1-1/math.E)*alpha)+beta) / (eps * eps)
	theta := int(math.Ceil(lambdaStar / lb))
	if theta < 1 {
		theta = 1
	}
	// The selection sample is always fresh: reusing the LB-phase sets here
	// would size θ from an LB the greedy then overfits on the very same
	// sets (the documented flaw of original IMM), so cross-phase reuse is
	// never performed regardless of NoReuse.
	if b.Collection() != nil {
		b.Collection().Reset()
	}
	if _, err := b.GrowTo(res, r, theta, opts.Workers); err != nil {
		return nil, err
	}
	collection := b.Collection()
	seeds, cum := collection.GreedyMaxCoverage(allNodes(n), k)
	spread := 0.0
	if len(cum) > 0 {
		spread = nf * float64(cum[len(cum)-1]) / float64(collection.Len())
	}
	stats := b.Stats()
	return &Result{
		Seeds:          seeds,
		SpreadLower:    spread / (1 + eps),
		Theta:          collection.Len(),
		ThetaRequested: theta,
		TotalRR:        stats.RRDrawn,
		PeakRRBytes:    stats.RRPeakBytes,
	}, nil
}

// SpreadLowerBound estimates a high-probability lower bound of E[I(S)] on
// g by drawing theta RR sets through a fresh ris.Batcher and subtracting
// the Hoeffding half-width at confidence 1−delta. The paper's cost
// calibration uses such a bound as E_l[I(T)] so that c(T) = E_l[I(T)]
// keeps ρ(T) ≥ 0. The error is the draw's (ris.Batcher.GrowTo).
func SpreadLowerBound(g *graph.Graph, model cascade.Model, s []graph.NodeID, theta int, delta float64, seed uint64, workers int) (float64, error) {
	if theta <= 0 {
		panic("imm: theta must be positive")
	}
	b := ris.NewBatcher(model)
	if _, err := b.GrowTo(graph.NewResidual(g), rng.New(seed), theta, workers); err != nil {
		return 0, fmt.Errorf("imm: spread lower bound: %w", err)
	}
	c := b.Collection()
	if c.Len() == 0 {
		return 0, nil
	}
	frac := float64(c.Cov(s)) / float64(c.Len())
	half := math.Sqrt(math.Log(1/delta) / (2 * float64(c.Len())))
	lower := (frac - half) * float64(g.N())
	if lower < 0 {
		lower = 0
	}
	return lower, nil
}

func allNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// logChoose returns ln C(n, k) via lgamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

func sq(x float64) float64 { return x * x }
