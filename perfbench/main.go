// Command perfbench is the mixtime repository benchmark. It drives the
// mixtimed daemon (internal/service behind a loopback net/http listener,
// spoken to with api.Client) and the experiment runner in-process,
// checks every answer, and prints the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one, ending with a one-line
// JSON result. Run it from the root of a checkout through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --workload all --trace 1
//
// Workloads, metrics and what each per-layer metric should move are
// tabled in manifest.go; BENCHMARK.json at the repository root is
// rendered from those tables (--manifest) and tested against them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what a workload pass runs with.
type env struct {
	seed    uint64
	seconds int
	nproc   int
	tr      *tracer // nil on untraced passes
	dir     string  // scratch directory inside the checkout
	log     io.Writer
	check   *checker
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

func (e *env) duration() time.Duration { return time.Duration(e.seconds) * time.Second }

// outcome is one workload pass: its op counts, its end-to-end metrics
// and, on traced passes, its per-layer metrics.
type outcome struct {
	attempted int64
	e2e       map[string]float64
	layers    map[string]float64
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result is the JSON object the last line of standard output carries.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold-solve, shared-read, paper-figs, or all (in one process)")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", runSeconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run printing per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for spans and scratch files")
	record := fs.String("record-digests", "", "write this run's answer digests into the given digests.json (default seed only)")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the tables define it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var specs []workloadSpec
	if *workload == "all" {
		specs = workloads
	} else if w, ok := workloadByName(*workload); ok {
		specs = []workloadSpec{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || (*record != "" && (*seed != defaultSeed || *trace != 0)) {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0 or 1, and --record-digests only with the default seed untraced")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	fmt.Fprintln(stdout, hostRecord(*seed))
	final := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range specs {
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, *out, *record, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(specs) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// runWorkload runs one workload: a single untraced pass, or for a
// traced run an untraced pass followed by a traced one, whose
// difference is the tracing overhead.
func runWorkload(w workloadSpec, seed uint64, seconds int, traced bool, dir, record string, stdout, stderr io.Writer) (result, error) {
	check, err := newChecker(w.name, seed)
	if err != nil {
		return result{}, err
	}
	nproc := runtime.NumCPU()
	pass := func(tr *tracer) (*outcome, error) {
		e := &env{seed: seed, seconds: seconds, nproc: nproc, tr: tr, dir: dir, log: stderr, check: check}
		return w.run(e)
	}
	fmt.Fprintf(stdout, "\n== %s (%s) seed %d, %d s timed phase, trace %v\n", w.name, w.loop, seed, seconds, traced)
	base, err := pass(nil)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: base.attempted, Metrics: map[string]metricJSON{}}
	printE2E(stdout, base)
	if !traced {
		for _, m := range e2eMetrics {
			if !m.gated {
				continue
			}
			v, ok := base.e2e[m.name]
			if !ok {
				return result{}, fmt.Errorf("metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metricJSON{v, m.unit}
		}
	} else {
		tr := newTracer()
		tout, err := pass(tr)
		if err != nil {
			return result{}, err
		}
		res.Attempted += tout.attempted
		path := tracePath(dir, w.name, seed)
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
		printOverhead(stdout, base, tout)
		printLayers(stdout, tout)
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metricJSON{tout.layers[m.name], m.unit}
		}
	}
	res.Failed = check.failures()
	res.Correct = res.Failed == 0
	fmt.Fprintln(stdout, "checks:")
	for _, l := range check.summary() {
		fmt.Fprintln(stdout, "  "+l)
	}
	if record != "" {
		if res.Failed > 0 {
			return result{}, errors.New("refusing to record digests from a run with failed ops")
		}
		if err := recordDigests(record, w.name, check); err != nil {
			return result{}, fmt.Errorf("record digests: %w", err)
		}
		fmt.Fprintf(stdout, "digests recorded in %s\n", record)
	}
	return res, nil
}

func printE2E(w io.Writer, o *outcome) {
	fmt.Fprintln(w, "end-to-end (untraced):")
	for _, m := range e2eMetrics {
		v, ok := o.e2e[m.name]
		if !ok {
			continue
		}
		gate := "reported"
		if m.gated {
			gate = fmt.Sprintf("gated, bound %.2f", m.bound)
		}
		fmt.Fprintf(w, "  %-16s %14.4f %-6s %s; %s\n", m.name, v, m.unit, gate, m.what)
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, "  "+n)
	}
}

// printOverhead prints traced minus untraced for every end-to-end
// metric both passes measured.
func printOverhead(w io.Writer, base, traced *outcome) {
	fmt.Fprintln(w, "tracing overhead (traced - untraced):")
	for _, m := range e2eMetrics {
		b, ok1 := base.e2e[m.name]
		t, ok2 := traced.e2e[m.name]
		if !ok1 || !ok2 {
			continue
		}
		share := 0.0
		if b != 0 {
			share = (t - b) / b
		}
		fmt.Fprintf(w, "  %-16s %+12.4f %-6s (%+.1f%%)\n", m.name, t-b, m.unit, 100*share)
	}
	for _, n := range traced.notes {
		fmt.Fprintln(w, "  traced: "+n)
	}
}

func printLayers(w io.Writer, o *outcome) {
	fmt.Fprintln(w, "per-layer (traced; n/a where the workload has no such span):")
	for _, m := range layerMetrics {
		v, ok := o.layers[m.name]
		val := fmt.Sprintf("%14.4f", v)
		if !ok {
			val = fmt.Sprintf("%14s", "n/a")
		}
		var moves []string
		for _, mv := range m.moves {
			moves = append(moves, mv.String())
		}
		fmt.Fprintf(w, "  %-32s %s %-5s should move %s\n", m.name, val, m.unit, strings.Join(moves, ", "))
	}
}
