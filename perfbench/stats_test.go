package main

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"
)

func TestP99LeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1000, 1001, 1500, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		rand.New(rand.NewPCG(1, uint64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		v, err := p99(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if beyond := countAbove(xs, v); beyond < 10 {
			t.Errorf("n=%d: p99 %v has %d samples beyond it, want at least 10", n, v, beyond)
		}
	}
}

func TestP99RefusesTooFewSamples(t *testing.T) {
	if _, err := p99(make([]float64, minTailSamples-1)); err == nil {
		t.Fatal("p99 of 999 samples succeeded; it must fail loudly")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		children []interval
		want     int64
	}{
		{nil, 100},
		{[]interval{{10, 30}}, 80},
		// Overlapping children cover [10, 50) once, not 20+30.
		{[]interval{{10, 30}, {20, 50}}, 60},
		{[]interval{{20, 50}, {10, 30}, {60, 70}}, 50},
		// A child nested in another adds nothing.
		{[]interval{{10, 90}, {20, 30}}, 20},
		// Children are clipped to the parent.
		{[]interval{{-10, 10}, {95, 120}}, 85},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime(%v, %v) = %d, want %d", parent, c.children, got, c.want)
		}
	}
}

// TestPhaseRecordsWindowPeaks holds 64 MiB resident through a phase's
// first window and checks the phase reports it from its own window
// peaks, not from the process-peak fallback.
func TestPhaseRecordsWindowPeaks(t *testing.T) {
	o := newOutcome()
	ph := beginPhase()
	b := make([]byte, 64<<20)
	for i := range b {
		b[i] = 1
	}
	time.Sleep(rssWindow + rssWindow/4)
	ph.end(o, 1)
	runtime.KeepAlive(b)
	if len(o.notes) > 0 {
		t.Fatalf("phase fell back to the process peak: %v", o.notes)
	}
	if got := o.e2e["peak_rss_mib"]; got < 64 {
		t.Errorf("peak_rss_mib %.1f MiB while 64 MiB stayed resident", got)
	}
}
