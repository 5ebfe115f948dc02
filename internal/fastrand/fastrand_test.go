package fastrand

import (
	"math/rand/v2"
	"testing"
)

// TestGoldenStream pins the PCG output stream for seed 1. These
// values are load-bearing: every kernel that derives its neighbors
// from a PCG (MCTrace, walk.Random/Endpoint/Tail) is reproducible
// only while this stream is stable. Changing the constants or the
// seeding path must fail here first, not in an experiment artifact.
func TestGoldenStream(t *testing.T) {
	p := New(1)
	want := []uint32{0x33ed7ce0, 0xf3193d19, 0xe6e1fb00, 0xcd027776, 0xb7d959f3, 0x13c2773e}
	for i, w := range want {
		if got := p.Uint32(); got != w {
			t.Fatalf("Uint32 draw %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestSeedsDecorrelated checks the New mixing step: adjacent seeds
// must not share their first output (the raw exemplar PCG without the
// warm-up draw fails this for small seeds).
func TestSeedsDecorrelated(t *testing.T) {
	seen := map[uint32]uint64{}
	for seed := uint64(0); seed < 64; seed++ {
		p := New(seed)
		v := p.Uint32()
		if prev, dup := seen[v]; dup {
			t.Fatalf("seeds %d and %d share first output %#x", prev, seed, v)
		}
		seen[v] = seed
	}
}

// TestUint32nRange draws across a spread of bounds, including the
// degenerate n=1 and near-2³² bounds that stress the Lemire residue
// path, and checks every value is in range.
func TestUint32nRange(t *testing.T) {
	p := New(7)
	for _, n := range []uint32{1, 2, 3, 7, 100, 1 << 16, 1<<31 + 1, ^uint32(0)} {
		for i := 0; i < 1000; i++ {
			if v := p.Uint32n(n); v >= n {
				t.Fatalf("Uint32n(%d) = %d out of range", n, v)
			}
		}
	}
}

// TestUint32nUniform is a coarse chi-square-free uniformity check:
// over many draws each of k buckets must land within 10% of the
// expected count. It guards against the classic modulo-bias mistake
// reappearing.
func TestUint32nUniform(t *testing.T) {
	p := New(42)
	const k, draws = 8, 800_000
	var counts [k]int
	for i := 0; i < draws; i++ {
		counts[p.Uint32n(k)]++
	}
	want := draws / k
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d: %d draws, want ~%d", b, c, want)
		}
	}
}

// TestFromRandDeterministic: the derived PCG is a pure function of
// the parent rng's state.
func TestFromRandDeterministic(t *testing.T) {
	a := FromRand(rand.New(rand.NewPCG(5, 6)))
	b := FromRand(rand.New(rand.NewPCG(5, 6)))
	for i := 0; i < 16; i++ {
		if x, y := a.Uint32(), b.Uint32(); x != y {
			t.Fatalf("draw %d: %#x != %#x", i, x, y)
		}
	}
}

// TestFloat64Range guards the 53-bit mantissa scaling.
func TestFloat64Range(t *testing.T) {
	p := New(3)
	for i := 0; i < 10_000; i++ {
		if f := p.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func BenchmarkUint32n(b *testing.B) {
	p := New(1)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += p.Uint32n(37)
	}
	_ = sink
}

func BenchmarkRandV2IntN(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.IntN(37)
	}
	_ = sink
}
