package experiments

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"mixtime/internal/telemetry"
)

// distTolerance mirrors DESIGN.md §11: the distributed estimate must
// land within 35% of the exact propagated τ, or 3 steps for small τ.
func distTolerance(exact int) int {
	tol := int(math.Ceil(0.35 * float64(exact)))
	if tol < 3 {
		tol = 3
	}
	return tol
}

func TestDistMixValidation(t *testing.T) {
	cfg := tiny
	col := telemetry.New()
	cfg.Collector = col
	rows, err := DistMixValidationContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows, want one per Table-1 dataset", len(rows))
	}
	for _, r := range rows {
		if r.Sources == 0 || r.Sources > d1MaxSources {
			t.Errorf("%s: %d sources, want 1..%d", r.Dataset, r.Sources, d1MaxSources)
		}
		diff := r.TauEst - r.TauExact
		if diff < 0 {
			diff = -diff
		}
		if diff > distTolerance(r.TauExact) {
			t.Errorf("%s: τ̂ %d vs exact %d exceeds tolerance %d",
				r.Dataset, r.TauEst, r.TauExact, distTolerance(r.TauExact))
		}
		if r.Shards > 1 && r.OffShardMessages == 0 {
			t.Errorf("%s: no off-shard traffic across %d shards", r.Dataset, r.Shards)
		}
		if r.Rounds <= 0 || r.Messages <= 0 {
			t.Errorf("%s: empty communication accounting: %+v", r.Dataset, r)
		}
	}
	if col.Snapshot().Get(telemetry.DistOffShardMessages) == 0 {
		t.Fatal("collector saw no off-shard messages")
	}
	out := RenderDistMix(rows)
	if !strings.Contains(out, "wiki-vote") || !strings.Contains(out, "off-shard") {
		t.Fatal("render incomplete")
	}
	var buf bytes.Buffer
	if err := DistMixCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(rows)+1 {
		t.Fatalf("CSV has %d lines, want %d", lines, len(rows)+1)
	}
}

func TestDistMixValidationDeterminism(t *testing.T) {
	a, err := DistMixValidationContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DistMixValidationContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical D1 runs disagree")
	}
}

func TestDistMixTradeoff(t *testing.T) {
	rows, err := DistMixTradeoffContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 walk counts × 3 shard counts + 2 truncation rows, per dataset.
	want := len(d2Datasets) * (3*3 + 2)
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	// Index the full-budget sweep per dataset to check the axes.
	type key struct {
		ds            string
		walks, shards int
	}
	byCfg := map[key]TradeoffRow{}
	for _, r := range rows {
		if r.MaxRounds == tiny.MaxWalk {
			byCfg[key{r.Dataset, r.Walks, r.Shards}] = r
		}
	}
	for _, ds := range d2Datasets {
		// Shard axis: same walker count → identical estimate, more
		// off-shard traffic than one-ish shards.
		for _, walks := range []int{4, 16, 64} {
			ref := byCfg[key{ds, walks, 2}]
			for _, shards := range []int{8, 32} {
				r := byCfg[key{ds, walks, shards}]
				if r.TauEst != ref.TauEst || r.NoiseFloor != ref.NoiseFloor {
					t.Errorf("%s walks=%d: shards %d changed τ̂ %d→%d",
						ds, walks, shards, ref.TauEst, r.TauEst)
				}
			}
		}
		// Walker axis: more walkers → lower noise floor.
		lo, hi := byCfg[key{ds, 4, 8}], byCfg[key{ds, 64, 8}]
		if hi.NoiseFloor >= lo.NoiseFloor {
			t.Errorf("%s: noise floor did not shrink with walkers: %v vs %v",
				ds, hi.NoiseFloor, lo.NoiseFloor)
		}
		if hi.Messages <= lo.Messages {
			t.Errorf("%s: message bill did not grow with walkers", ds)
		}
	}
	// Truncation rows cap the estimate at their budget.
	for _, r := range rows {
		if r.MaxRounds < tiny.MaxWalk && r.TauEst > r.MaxRounds {
			t.Errorf("%s: τ̂ %d exceeds round budget %d", r.Dataset, r.TauEst, r.MaxRounds)
		}
	}
	out := RenderDistMixTradeoff(rows)
	if !strings.Contains(out, "physics-1") || !strings.Contains(out, "budget") {
		t.Fatal("render incomplete")
	}
	var buf bytes.Buffer
	if err := DistMixTradeoffCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(rows)+1 {
		t.Fatalf("CSV has %d lines, want %d", lines, len(rows)+1)
	}
}
