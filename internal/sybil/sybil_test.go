package sybil

import (
	"math/rand/v2"
	"testing"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x5151)) }

func fastGraph(n int) *graph.Graph {
	g := gen.BarabasiAlbert(n, 5, rng(1))
	lcc, _ := graph.LargestComponent(g)
	return lcc
}

func TestConfigDefaults(t *testing.T) {
	g := fastGraph(500)
	p, err := NewProtocol(g, Config{W: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.R < 1 {
		t.Fatalf("derived R = %d", cfg.R)
	}
	// r = ceil(4·√m)
	if cfg.R0 != 4 || cfg.BalanceMult != 4 || cfg.BalanceFloor < 5 {
		t.Fatalf("defaults %+v", cfg)
	}
	if _, err := NewProtocol(g, Config{}); err == nil {
		t.Fatal("W=0 accepted")
	}
	if _, err := NewProtocol(&graph.Graph{}, Config{W: 5}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestVerifyAcceptsMostHonestOnFastGraph(t *testing.T) {
	// On a fast-mixing graph with w comfortably above the mixing
	// time, SybilLimit should admit nearly everyone.
	g := fastGraph(400)
	p, err := NewProtocol(g, Config{W: 15, R0: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res := p.Verify(0, AllHonest(g, 0))
	if rate := res.AcceptRate(); rate < 0.9 {
		t.Fatalf("accept rate %v (no-int %d, balance %d of %d)",
			rate, res.NoIntersection, res.BalanceRejected, len(res.Suspects))
	}
}

func TestVerifyRejectsWithTinyWalks(t *testing.T) {
	// With w=1 the verifier's tails live on its own edges; most
	// suspects cannot intersect.
	g := fastGraph(400)
	p, err := NewProtocol(g, Config{W: 1, R0: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res := p.Verify(0, AllHonest(g, 0))
	if rate := res.AcceptRate(); rate > 0.5 {
		t.Fatalf("accept rate %v with w=1", rate)
	}
}

func TestVerifyMonotoneInWalkLength(t *testing.T) {
	g := fastGraph(300)
	var prev float64 = -1
	for _, w := range []int{1, 4, 12} {
		p, err := NewProtocol(g, Config{W: w, R0: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rate := p.Verify(5, AllHonest(g, 5)).AcceptRate()
		if rate < prev-0.12 {
			t.Fatalf("accept rate dropped sharply with longer walks: w=%d rate=%v prev=%v", w, rate, prev)
		}
		prev = rate
	}
	if prev < 0.8 {
		t.Fatalf("final accept rate %v", prev)
	}
}

func TestVerifyDeterministic(t *testing.T) {
	g := fastGraph(200)
	cfg := Config{W: 8, R0: 2, Seed: 11}
	p1, _ := NewProtocol(g, cfg)
	p2, _ := NewProtocol(g, cfg)
	r1 := p1.Verify(0, AllHonest(g, 0))
	r2 := p2.Verify(0, AllHonest(g, 0))
	if r1.NumAccepted != r2.NumAccepted {
		t.Fatalf("non-deterministic: %d vs %d", r1.NumAccepted, r2.NumAccepted)
	}
	for i := range r1.Accepted {
		if r1.Accepted[i] != r2.Accepted[i] {
			t.Fatalf("decision %d differs", i)
		}
	}
}

func TestBalanceConditionCapsLoad(t *testing.T) {
	// With an artificially tiny balance budget, acceptance must be
	// bounded by R × floor even when everyone intersects.
	g := fastGraph(300)
	p, err := NewProtocol(g, Config{W: 12, R: 30, Seed: 5, BalanceFloor: 1, BalanceMult: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	res := p.Verify(0, AllHonest(g, 0))
	if res.NumAccepted > 30*1 {
		t.Fatalf("balance breached: %d accepted with R=30, floor=1", res.NumAccepted)
	}
	if res.BalanceRejected == 0 {
		t.Fatal("no balance rejections under a tiny budget")
	}
}

func TestAttackWiring(t *testing.T) {
	honest := fastGraph(200)
	sybilRegion := gen.Complete(30)
	a := NewAttack(honest, sybilRegion, 5, rng(2))
	if a.Combined.NumNodes() != honest.NumNodes()+30 {
		t.Fatalf("combined n = %d", a.Combined.NumNodes())
	}
	wantM := honest.NumEdges() + sybilRegion.NumEdges() + 5
	if a.Combined.NumEdges() < wantM-2 || a.Combined.NumEdges() > wantM {
		t.Fatalf("combined m = %d, want ≈%d", a.Combined.NumEdges(), wantM)
	}
	if a.IsSybil(0) || !a.IsSybil(graph.NodeID(honest.NumNodes())) {
		t.Fatal("IsSybil misclassifies")
	}
	if len(a.Sybils()) != 30 || len(a.HonestNodes()) != 200 {
		t.Fatal("node set sizes wrong")
	}
}

func TestRunAttackBoundsSybils(t *testing.T) {
	honest := fastGraph(300)
	sybilRegion := gen.BarabasiAlbert(100, 3, rng(3))
	a := NewAttack(honest, sybilRegion, 3, rng(4))
	out, err := RunAttack(a, 0, Config{W: 10, R0: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if out.HonestTotal != 299 || out.SybilTotal != 100 {
		t.Fatalf("totals %+v", out)
	}
	// Honest admission should far exceed sybil admission rate-wise.
	honestRate := float64(out.HonestAccepted) / float64(out.HonestTotal)
	sybilRate := float64(out.SybilAccepted) / float64(out.SybilTotal)
	if honestRate < 0.7 {
		t.Fatalf("honest rate %v", honestRate)
	}
	if sybilRate > honestRate {
		t.Fatalf("sybil rate %v exceeds honest rate %v", sybilRate, honestRate)
	}
	if out.EscapedTails < 0 || out.EscapedTails > out.R {
		t.Fatalf("escaped tails %d of R=%d", out.EscapedTails, out.R)
	}
}

func TestMoreAttackEdgesMoreEscapes(t *testing.T) {
	honest := fastGraph(300)
	sybilRegion := gen.BarabasiAlbert(100, 3, rng(5))
	few := NewAttack(honest, sybilRegion, 1, rng(6))
	many := NewAttack(honest, sybilRegion, 60, rng(6))
	cfg := Config{W: 10, R0: 2, Seed: 9}
	outFew, err := RunAttack(few, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outMany, err := RunAttack(many, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if outMany.EscapedTails <= outFew.EscapedTails {
		t.Fatalf("escapes: g=60 %d vs g=1 %d", outMany.EscapedTails, outFew.EscapedTails)
	}
}

func TestSybilGuardBaseline(t *testing.T) {
	g := fastGraph(300)
	res, err := SybilGuard(g, 0, AllHonest(g, 0), GuardConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != GuardWalkLength(g.NumNodes()) {
		t.Fatalf("default W = %d", res.W)
	}
	if res.AcceptRate() < 0.5 {
		t.Fatalf("guard accept rate %v with w=%d", res.AcceptRate(), res.W)
	}
	// Short walks accept less.
	short, err := SybilGuard(g, 0, AllHonest(g, 0), GuardConfig{W: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if short.AcceptRate() >= res.AcceptRate() {
		t.Fatalf("short-walk rate %v ≥ full rate %v", short.AcceptRate(), res.AcceptRate())
	}
}

func TestGuardWalkLength(t *testing.T) {
	if GuardWalkLength(1) != 1 {
		t.Fatal("degenerate n")
	}
	// √(10000·ln 10000) ≈ 303.5 → 304.
	if got := GuardWalkLength(10_000); got != 304 {
		t.Fatalf("GuardWalkLength(1e4) = %d", got)
	}
}

func BenchmarkVerify(b *testing.B) {
	g := fastGraph(1000)
	p, err := NewProtocol(g, Config{W: 10, R0: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	suspects := AllHonest(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Verify(0, suspects)
	}
}
