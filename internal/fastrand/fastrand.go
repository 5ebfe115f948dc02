// Package fastrand provides the devirtualized PCG32 generator the
// walk kernels sample neighbors with. math/rand/v2's *rand.Rand costs an
// interface dispatch (Source.Uint64) plus a 128-bit PCG step per
// draw; at tens of millions of walker moves per second that dispatch
// is the single hottest instruction sequence in a Monte-Carlo trace.
// PCG here is the 64-bit-state, 32-bit-output PCG-XSH-RR variant: a
// value type with no interfaces, so every draw is a direct call. Uint32
// inlines; Uint32n, the per-hop draw of the walk kernels, does not (its
// inlining cost is 147 against the compiler's budget of 80, and a
// split-out rejection loop stays over budget), so each hop pays one
// call with the state in memory — cheap beside the dependent adjacency
// loads it sits between.
//
// Two draw primitives cover the kernels:
//
//   - Uint32 is one LCG multiply plus an xorshift-rotate.
//   - Uint32n is Lemire's multiply-shift bounded draw: one 32×32→64
//     multiply in the common case, with the rejection loop only
//     entered on the (p < n/2³²) biased residue — branch-predicted
//     away for the degree ranges a social graph has.
//
// Seeding discipline: every public API that used to take a
// *math/rand/v2.Rand still does; hot loops derive their private PCG
// from that stream via FromRand (one Uint64 draw). Results remain a
// pure function of the caller's seed, but the derived stream differs
// from the pre-PCG one — golden values were re-pinned in the PR that
// introduced this package (see OPTIMIZATIONS.md).
package fastrand

import "math/rand/v2"

// PCG is a PCG-XSH-RR 64/32 generator. The zero value is a valid
// (seed-0) generator; prefer New or FromRand. PCG is a value type:
// copy it to fork a stream (the copies then evolve independently).
type PCG struct {
	state uint64
}

// mul and inc are the standard PCG64 LCG constants.
const (
	mul = 6364136223846793005
	inc = 1442695040888963407
)

// New returns a PCG seeded from seed. The seed is mixed through one
// LCG advance so that small consecutive seeds (0, 1, 2, ...) do not
// produce correlated first outputs.
func New(seed uint64) PCG {
	p := PCG{state: 2*seed + 1}
	p.Uint32()
	return p
}

// FromRand derives a PCG from one Uint64 draw of rng — the bridge
// every public *rand.Rand API uses to hand its hot loop a
// devirtualized generator while remaining a pure function of the
// caller's seed.
func FromRand(rng *rand.Rand) PCG {
	return New(rng.Uint64())
}

// Uint32 returns the next 32-bit output.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*mul + inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns two Uint32 draws packed high-to-low.
func (p *PCG) Uint64() uint64 {
	hi := uint64(p.Uint32())
	lo := uint64(p.Uint32())
	return hi<<32 | lo
}

// Uint32n returns a uniform value in [0, n) by Lemire's multiply-shift
// method; n must be positive. The fast path is a single multiply — the
// rejection loop runs only when the low product word lands in the
// biased residue, probability n/2³², so for graph degrees it is
// essentially never taken.
func (p *PCG) Uint32n(n uint32) uint32 {
	x := p.Uint32()
	m := uint64(x) * uint64(n)
	if l := uint32(m); l < n {
		t := -n % n // (2³² − n) mod n, the biased-residue bound
		for l < t {
			x = p.Uint32()
			m = uint64(x) * uint64(n)
			l = uint32(m)
		}
	}
	return uint32(m >> 32)
}

// IntN returns a uniform int in [0, n); n must be in (0, 2³²).
func (p *PCG) IntN(n int) int {
	return int(p.Uint32n(uint32(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Coin returns a fair boolean — one Uint32 draw, bit 0.
func (p *PCG) Coin() bool {
	return p.Uint32()&1 == 0
}
