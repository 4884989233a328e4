// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component in the repository.
//
// The generator is a PCG-XSH-RR 64/32 stream seeded through SplitMix64.
// Two properties matter for the reproduction:
//
//   - Determinism: every experiment takes an explicit seed and produces
//     bit-identical output across runs, which the paper's methodology
//     (20 fixed realizations per configuration) relies on.
//   - Splittability: independent substreams derive from a parent without
//     sharing state. RR-set batches key one substream per fixed-size chunk
//     of sets (Reseed(Mix64(key + chunk·Golden))), so the sets depend on
//     the seed and the count only — not on goroutine scheduling and not
//     on how many workers draw them.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a PCG-XSH-RR 64/32 pseudo-random generator. The zero value is not
// usable; construct with New or Split.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// Golden is SplitMix64's state increment (2^64 divided by the golden
// ratio, made odd). Mix64(key + i*Golden) is output i of the SplitMix64
// stream keyed by key.
const Golden = 0x9e3779b97f4a7c15

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, never for user-visible randomness.
func splitmix64(s *uint64) uint64 {
	*s += Golden
	return Mix64(*s)
}

// Mix64 is SplitMix64's output function: a bijective 64-bit finalizer
// with full avalanche. Keyed realizations evaluate their coins as
// Mix64(key + i*Golden), output i of a SplitMix64 stream, so any coin of
// a world can be drawn on its own, in any order.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r in place exactly as New(seed) would, without
// allocating. Persistent sampler pools use it to give long-lived workers
// each chunk's keyed substream.
func (r *RNG) Reseed(seed uint64) {
	s := seed
	r.state = splitmix64(&s)
	r.inc = splitmix64(&s)<<1 | 1
	// Advance once so that near-zero seeds do not produce near-zero output.
	r.Uint32()
}

// State returns the generator's two state words (state, stream increment).
// Together with SetState it round-trips a generator through a checkpoint:
// a restored generator continues the exact output sequence the captured
// one would have produced. The words are opaque; consumers must not
// derive randomness from them.
func (r *RNG) State() (state, inc uint64) { return r.state, r.inc }

// SetState restores a state captured by State. The increment must be odd
// (every State-produced increment is); SetState panics otherwise, because
// an even increment silently degrades the stream to a shorter period.
func (r *RNG) SetState(state, inc uint64) {
	if inc&1 == 0 {
		panic("rng: SetState with even increment (corrupt checkpoint?)")
	}
	r.state = state
	r.inc = inc
}

// Split returns a new generator whose stream is independent of r's.
// The child is a pure function of r's current state, so splitting is itself
// deterministic; r advances as if one value had been drawn.
func (r *RNG) Split() *RNG {
	child := &RNG{}
	r.SplitTo(child)
	return child
}

// SplitTo is the in-place form of Split: it reseeds child with the stream
// Split would have allocated, so pooled workers can be re-derived from a
// parent every batch without heap traffic. r advances identically to Split.
func (r *RNG) SplitTo(child *RNG) {
	a := uint64(r.Uint32())
	b := uint64(r.Uint32())
	child.Reseed(a<<32 | b)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return bits.RotateLeft32(xorshifted, -int(rot))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded generation avoids modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint32(n)
	x := r.Uint32()
	m := uint64(x) * uint64(bound)
	lo := uint32(m)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint32()
			m = uint64(x) * uint64(bound)
			lo = uint32(m)
		}
	}
	return int(m >> 32)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool {
	return r.Uint32()&1 == 1
}

// Coin returns true with the given probability p in [0, 1].
func (r *RNG) Coin(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed float64 with rate 1, using
// inversion. Used by generators that need heavy-tailed weights.
func (r *RNG) Exp() float64 {
	u := r.Float64()
	// Float64 is in [0,1); 1-u is in (0,1] so the log is finite.
	return -math.Log(1 - u)
}

// Geometric returns the number of failures before the first success in a
// Bernoulli(p) sequence, via the table-free inversion
//
//	k = floor(log(1-U) / log(1-p)),
//
// the jump primitive that lets a sampler skip over a run of
// same-probability Bernoulli trials in one draw instead of flipping one
// coin per trial (the SUBSIM-style skip). Hot loops that jump repeatedly
// at one p use GeometricInv with the denominator hoisted; Geometric is
// the general single-shot form, clamped to MaxInt so a pathologically
// small p cannot overflow the float-to-int conversion. Geometric panics
// for p <= 0; p >= 1 returns 0.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric needs p > 0")
	}
	return r.GeometricInv(1/math.Log1p(-p), math.MaxInt)
}

// PrefixPick inverts a uniform prefix scan: with n intervals of width p
// laid end to end, it returns the index i such that a uniform draw lands
// in [i·p, (i+1)·p), or -1 when the draw lands past n·p. This is the O(1)
// form of the linear threshold model's "pick at most one in-parent with
// probability p each" scan; forward realization sampling and reverse RR
// sampling share it so the boundary semantics cannot diverge.
func (r *RNG) PrefixPick(p float64, n int) int {
	return PrefixIndex(r.Float64(), p, n)
}

// PrefixIndex is PrefixPick on a given uniform x in [0, 1), for callers
// that derive x from a hash instead of a stream.
func PrefixIndex(x, p float64, n int) int {
	if idx := int(x / p); idx < n {
		return idx
	}
	return -1
}

// GeometricInv is Geometric with the denominator precomputed: invLog1mP
// must equal 1/log1p(-p) for the success probability p in (0, 1). Callers
// that jump repeatedly at the same p (a whole in-adjacency scan) hoist the
// log out of the loop. The jump is clamped to max, so a pathologically
// small p cannot overflow the float-to-int conversion.
func (r *RNG) GeometricInv(invLog1mP float64, max int) int {
	k := math.Log1p(-r.Float64()) * invLog1mP
	if k >= float64(max) {
		return max
	}
	return int(k)
}
