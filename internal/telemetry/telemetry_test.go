package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Add(EdgesScanned, 10)
	c.ObserveMax(ShardImbalanceMilli, 1200)
	c.Timer("stage")()
	c.Merge(Snapshot{})
	c.Reset()
	if got := c.Count(EdgesScanned); got != 0 {
		t.Fatalf("nil collector Count = %d, want 0", got)
	}
	s := c.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Timers) != 0 {
		t.Fatalf("nil collector snapshot not zero: %+v", s)
	}
}

func TestNilCollectorAddAllocatesNothing(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(Matvecs, 1)
		c.Add(EdgesScanned, 1024)
	})
	if allocs != 0 {
		t.Fatalf("nil Collector.Add allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCountersAndGauges(t *testing.T) {
	c := New()
	c.Add(Matvecs, 3)
	c.Add(Matvecs, 2)
	c.Add(EdgesScanned, 100)
	c.ObserveMax(ShardImbalanceMilli, 1100)
	c.ObserveMax(ShardImbalanceMilli, 1050) // lower: ignored
	s := c.Snapshot()
	if got := s.Get(Matvecs); got != 5 {
		t.Errorf("matvecs = %d, want 5", got)
	}
	if got := s.Get(EdgesScanned); got != 100 {
		t.Errorf("edges = %d, want 100", got)
	}
	if got := s.GetGauge(ShardImbalanceMilli); got != 1100 {
		t.Errorf("imbalance = %d, want 1100", got)
	}
	if s.Get(Restarts) != 0 {
		t.Errorf("restarts should be absent/zero")
	}
}

func TestConcurrentAdds(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(SourceSteps, 1)
				c.ObserveMax(MaxGraphAdjacency, int64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Count(SourceSteps); got != workers*per {
		t.Fatalf("source steps = %d, want %d", got, workers*per)
	}
	if got := c.Snapshot().GetGauge(MaxGraphAdjacency); got != per-1 {
		t.Fatalf("max gauge = %d, want %d", got, per-1)
	}
}

func TestTimers(t *testing.T) {
	c := New()
	stop := c.Timer("spectral")
	time.Sleep(time.Millisecond)
	stop()
	c.addTime("spectral", 5*time.Millisecond)
	c.addTime("sampling", 2*time.Millisecond)
	s := c.Snapshot()
	if len(s.Timers) != 2 {
		t.Fatalf("timers = %+v, want 2 stages", s.Timers)
	}
	// Sorted by stage name: sampling before spectral.
	if s.Timers[0].Stage != "sampling" || s.Timers[1].Stage != "spectral" {
		t.Fatalf("timer order wrong: %+v", s.Timers)
	}
	if s.Timers[1].Count != 2 || s.Timers[1].Nanos < int64(6*time.Millisecond) {
		t.Fatalf("spectral timer = %+v, want count 2 and >= 6ms", s.Timers[1])
	}
}

func TestMergeAggregates(t *testing.T) {
	child1, child2, parent := New(), New(), New()
	child1.Add(Matvecs, 10)
	child1.ObserveMax(ShardImbalanceMilli, 1500)
	child1.addTime("spectral", time.Second)
	child2.Add(Matvecs, 5)
	child2.Add(Restarts, 1)
	child2.ObserveMax(ShardImbalanceMilli, 1200)
	parent.Merge(child1.Snapshot())
	parent.Merge(child2.Snapshot())
	s := parent.Snapshot()
	if got := s.Get(Matvecs); got != 15 {
		t.Errorf("merged matvecs = %d, want 15", got)
	}
	if got := s.Get(Restarts); got != 1 {
		t.Errorf("merged restarts = %d, want 1", got)
	}
	if got := s.GetGauge(ShardImbalanceMilli); got != 1500 {
		t.Errorf("merged imbalance = %d, want max 1500", got)
	}
	if len(s.Timers) != 1 || s.Timers[0].Nanos != int64(time.Second) {
		t.Errorf("merged timers = %+v", s.Timers)
	}
}

// populated returns a snapshot with every field class filled, as an
// instrumented experiment would produce.
func populated() Snapshot {
	c := New()
	c.Add(EdgesScanned, 123456)
	c.Add(Matvecs, 789)
	c.Add(SpMMBlocks, 25)
	c.Add(SourceSteps, 10000)
	c.Add(PowerIterations, 321)
	c.Add(LanczosIterations, 55)
	c.Add(Restarts, 1)
	c.Add(TracesCompleted, 200)
	c.ObserveMax(ShardImbalanceMilli, 1037)
	c.ObserveMax(MaxGraphAdjacency, 65536)
	c.addTime("spectral", 1500*time.Millisecond)
	c.addTime("sampling", 2500*time.Millisecond)
	return c.Snapshot()
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := populated()
	var buf bytes.Buffer
	if err := s.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("JSON round trip changed snapshot:\n  in  %+v\n  out %+v", s, back)
	}
}

func TestSnapshotEmissionDeterministic(t *testing.T) {
	s := populated()
	var c1, j1 bytes.Buffer
	if err := s.CSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := s.JSON(&j1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var c2, j2 bytes.Buffer
		if err := s.CSV(&c2); err != nil {
			t.Fatal(err)
		}
		if err := s.JSON(&j2); err != nil {
			t.Fatal(err)
		}
		if c1.String() != c2.String() {
			t.Fatalf("CSV emission nondeterministic:\n%s\nvs\n%s", c1.String(), c2.String())
		}
		if j1.String() != j2.String() {
			t.Fatalf("JSON emission nondeterministic")
		}
	}
	if s.Render() != s.Render() {
		t.Fatal("Render nondeterministic")
	}
	// Counters appear in taxonomy order, timers last.
	csv := c1.String()
	if !strings.HasPrefix(csv, "metric,value\nedges_scanned,123456\nmatvecs,789\n") {
		t.Fatalf("CSV order unexpected:\n%s", csv)
	}
	if !strings.Contains(csv, "time_sampling_ms,2500.0") {
		t.Fatalf("CSV missing timer row:\n%s", csv)
	}
}

func TestCounterAndGaugeNames(t *testing.T) {
	for i := Counter(0); i < numCounters; i++ {
		if i.String() == "unknown" || i.String() == "" {
			t.Errorf("counter %d has no name", i)
		}
	}
	for i := Gauge(0); i < numGauges; i++ {
		if i.String() == "unknown" || i.String() == "" {
			t.Errorf("gauge %d has no name", i)
		}
	}
	if Counter(-1).String() != "unknown" || Counter(numCounters).String() != "unknown" {
		t.Error("out-of-range counter should render unknown")
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Add(Matvecs, 1)
	c.ObserveMax(MaxGraphAdjacency, 5)
	c.addTime("x", time.Second)
	c.Reset()
	if s := c.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Timers) != 0 {
		t.Fatalf("after Reset snapshot = %+v, want zero", s)
	}
}
