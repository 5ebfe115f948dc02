package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadManifest reads the repository's BENCHMARK.json, refusing keys
// the benchmark contract does not define.
func loadManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifest holds BENCHMARK.json to the benchmark contract and to
// the tables in manifest.go it is rendered from.
func TestManifest(t *testing.T) {
	m := loadManifest(t)
	var got, want bytes.Buffer
	json.NewEncoder(&got).Encode(m)
	json.NewEncoder(&want).Encode(buildManifest())
	if got.String() != want.String() {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with --manifest\n got %s\nwant %s", got.String(), want.String())
	}

	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", m.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		unique(w.Name)
		spec, ok := workloadByName(w.Name)
		if !ok {
			t.Errorf("workload %q has no implementation", w.Name)
			continue
		}
		if !strings.HasPrefix(spec.loop, "closed loop, ") && !strings.HasPrefix(spec.loop, "open loop at ") {
			t.Errorf("workload %q does not record its loop type: %q", w.Name, spec.loop)
		}
		if spec.why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %q: why must be one non-empty line of at most 200 characters: %q", w.Name, w.Why)
		}
	}
	for _, e := range m.EndToEnd {
		unique(e.Name)
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end-to-end %q: unit %q, better %q", e.Name, e.Unit, e.Better)
		}
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if s, ok := e2eByName("setup_s"); !ok || !s.gated || s.unit != "s" || s.better != "lower" {
		t.Errorf("setup_s must be a gated metric in s, lower better: %+v", s)
	}
	for _, l := range m.PerLayer {
		unique(l.Name)
		if !unitRE.MatchString(l.Unit) || (l.Better != "lower" && l.Better != "higher") || l.Bound != nil {
			t.Errorf("per-layer %q: unit %q, better %q, bound %v", l.Name, l.Unit, l.Better, l.Bound)
		}
	}
	for _, l := range layerMetrics {
		if len(l.moves) == 0 {
			t.Errorf("per-layer %q names no end-to-end metric it should move", l.name)
		}
		for _, mv := range l.moves {
			if _, ok := e2eByName(mv.metric); !ok {
				t.Errorf("per-layer %q should move unknown metric %q", l.name, mv.metric)
			}
			if _, ok := workloadByName(mv.workload); !ok {
				t.Errorf("per-layer %q should move a metric on unknown workload %q", l.name, mv.workload)
			}
		}
	}
	for _, c := range m.Command {
		if strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command argument %q leaves the checkout", c)
		}
	}
}

// TestCommandPrintsEveryMetric runs the cheapest workload through the
// command's entry point and checks its last line carries every gated
// end-to-end metric with its unit, and its traced run every per-layer
// metric.
func TestCommandPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper-figs workload")
	}
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "paper-figs", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct %v, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
		}
		want := map[string]string{}
		if trace == "0" {
			for _, e := range e2eMetrics {
				if e.gated {
					want[e.name] = e.unit
				}
			}
		} else {
			for _, l := range layerMetrics {
				want[l.name] = l.unit
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, name, got, unit)
			}
		}
	}
}
