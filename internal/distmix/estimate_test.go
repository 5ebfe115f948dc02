package distmix

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/telemetry"
)

func connectedRandom(n int, extra int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 17))
	b := graph.NewBuilder(0)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(rng.IntN(i)), graph.NodeID(i))
	}
	for k := 0; k < extra; k++ {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	return b.Build()
}

// estimateTolerance is the documented cross-validation tolerance of
// DESIGN.md §11: the walk-distribution estimate must land within 35%
// of the exact propagated τ(ε), or 3 steps for small τ.
func estimateTolerance(exact int) int {
	tol := int(math.Ceil(0.35 * float64(exact)))
	if tol < 3 {
		tol = 3
	}
	return tol
}

func TestEstimateMatchesExactPropagation(t *testing.T) {
	g := connectedRandom(200, 400, 5)
	sources := []graph.NodeID{3, 57, 120, 199}
	opt := Options{
		Shards:       5,
		WalksPerNode: 64,
		MaxRounds:    300,
		Eps:          0.1,
		SourceList:   sources,
		Seed:         1,
	}
	res, err := EstimateMixingTime(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("estimate incomplete within %d rounds", opt.MaxRounds)
	}

	chain, err := markov.New(g)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := chain.TraceSampleBlockedContext(context.Background(), sources, opt.MaxRounds, opt.Eps, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for i, src := range sources {
		te, ok := traces[i].MixingTime(opt.Eps)
		if !ok {
			t.Fatalf("exact trace from %d did not mix", src)
		}
		if te > exact {
			exact = te
		}
		se := res.Sources[i]
		if diff := abs(se.Tau - te); diff > estimateTolerance(te) {
			t.Errorf("source %d: estimated τ %d vs exact %d (tolerance %d)",
				src, se.Tau, te, estimateTolerance(te))
		}
		// The local certificate is pointwise, so ζ lands near τ but not
		// necessarily below it; hold it to the same tolerance band.
		if !se.LocalMixed {
			t.Errorf("source %d: local mixing never certified", src)
		} else if diff := abs(se.LocalTau - te); diff > estimateTolerance(te) {
			t.Errorf("source %d: local τ %d vs exact τ %d (tolerance %d)",
				src, se.LocalTau, te, estimateTolerance(te))
		}
	}
	if diff := abs(res.Tau - exact); diff > estimateTolerance(exact) {
		t.Errorf("worst-case τ̂ %d vs exact %d (tolerance %d)", res.Tau, exact, estimateTolerance(exact))
	}
}

func TestEstimateShardCountInvariance(t *testing.T) {
	g := connectedRandom(150, 250, 7)
	base := Options{
		WalksPerNode: 32,
		MaxRounds:    200,
		Eps:          0.1,
		Sources:      3,
		Seed:         42,
	}
	var ref *Result
	for _, shards := range []int{1, 3, 7, 16} {
		opt := base
		opt.Shards = shards
		res, err := EstimateMixingTime(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Tau != ref.Tau || res.LocalTau != ref.LocalTau ||
			res.Complete != ref.Complete || res.NoiseFloor != ref.NoiseFloor {
			t.Fatalf("shards=%d changed the estimate: τ %d vs %d, ζ %d vs %d",
				shards, res.Tau, ref.Tau, res.LocalTau, ref.LocalTau)
		}
		if !reflect.DeepEqual(res.Sources, ref.Sources) {
			t.Fatalf("shards=%d changed per-source estimates:\n%+v\nvs\n%+v",
				shards, res.Sources, ref.Sources)
		}
		if shards > 1 && res.Stats.OffShardMessages == 0 {
			t.Fatalf("shards=%d reported zero off-shard messages", shards)
		}
	}
}

func TestEstimateDeterministicForFixedSeed(t *testing.T) {
	g := connectedRandom(120, 200, 11)
	opt := Options{Shards: 4, WalksPerNode: 16, MaxRounds: 200, Eps: 0.1, Sources: 2, Seed: 9}
	a, err := EstimateMixingTime(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateMixingTime(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs disagree:\n%+v\nvs\n%+v", a, b)
	}
}

func TestSourceDerivationMatchesCore(t *testing.T) {
	// The estimator promises its sampled sources equal the ones
	// core.MeasureContext draws for the same seed, so distmix and cdf
	// queries measure the same vertices. Pin the shared derivation.
	g := connectedRandom(100, 150, 3)
	rng := rand.New(rand.NewPCG(7, 0xc0fe))
	want := markov.SampleSources(g, 5, rng)
	res, err := EstimateMixingTime(context.Background(), g, Options{
		WalksPerNode: 4, MaxRounds: 50, Sources: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sources) != len(want) {
		t.Fatalf("sampled %d sources, want %d", len(res.Sources), len(want))
	}
	for i, se := range res.Sources {
		if se.Source != want[i] {
			t.Fatalf("source %d = %d, want %d", i, se.Source, want[i])
		}
	}
}

func TestEstimateBipartiteUsesLazyChain(t *testing.T) {
	g := ring(12) // even ring: bipartite, plain walk periodic
	res, err := EstimateMixingTime(context.Background(), g, Options{
		WalksPerNode: 256, MaxRounds: 400, Eps: 0.25, SourceList: []graph.NodeID{0}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lazy {
		t.Fatal("bipartite graph not measured lazily")
	}
	if !res.Complete {
		t.Fatal("lazy ring walk never mixed — periodicity leak?")
	}
}

func TestEstimateTelemetry(t *testing.T) {
	g := connectedRandom(80, 120, 2)
	col := telemetry.New()
	res, err := EstimateMixingTime(context.Background(), g, Options{
		Shards: 4, WalksPerNode: 8, MaxRounds: 100, Sources: 2, Seed: 1, Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if got := snap.Get(telemetry.DistRounds); got != int64(res.Stats.Rounds) {
		t.Fatalf("distmix_rounds = %d, stats say %d", got, res.Stats.Rounds)
	}
	if snap.Get(telemetry.DistOffShardMessages) == 0 {
		t.Fatal("no off-shard messages recorded — message passing never crossed a boundary")
	}
	if got := snap.Get(telemetry.DistMessages); got != res.Stats.Messages {
		t.Fatalf("distmix_messages = %d, stats say %d", got, res.Stats.Messages)
	}
}

func TestEstimateRejectsDegenerate(t *testing.T) {
	if _, err := EstimateMixingTime(context.Background(), &graph.Graph{}, Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	b := graph.NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3) // second component
	if _, err := EstimateMixingTime(context.Background(), b.Build(), Options{}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestEstimateCancellation(t *testing.T) {
	g := connectedRandom(100, 150, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateMixingTime(ctx, g, Options{Sources: 2}); err == nil {
		t.Fatal("cancelled estimate returned no error")
	}
}

func TestBinomMADExact(t *testing.T) {
	// Cross-check De Moivre's closed form against direct enumeration.
	for _, tc := range []struct {
		k int
		p float64
	}{{10, 0.3}, {25, 0.5}, {40, 0.05}, {7, 0.9}} {
		var mean float64
		kp := float64(tc.k) * tc.p
		for i := 0; i <= tc.k; i++ {
			lg := lchoose(tc.k, float64(i)) + float64(i)*math.Log(tc.p) +
				float64(tc.k-i)*math.Log1p(-tc.p)
			mean += math.Abs(float64(i)-kp) * math.Exp(lg)
		}
		want := mean / float64(tc.k)
		got := binomMAD(tc.k, tc.p)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("binomMAD(%d, %v) = %v, want %v", tc.k, tc.p, got, want)
		}
	}
	if binomMAD(10, 0) != 0 || binomMAD(10, 1) != 0 {
		t.Fatal("degenerate p must have zero MAD")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
