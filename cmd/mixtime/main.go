// Command mixtime measures the mixing time of a graph from the
// command line.
//
// Usage:
//
//	mixtime [global flags] <subcommand> [flags] <graph>
//
//	mixtime info    <graph>
//	mixtime slem    [-method lanczos|power] [-tol 1e-8] <graph>
//	mixtime measure [-sources 100] [-maxwalk 200] [-eps 0.1,0.01] <graph>
//	mixtime trim    -mindeg K -o out.txt <graph>
//	mixtime sample  -k N [-start V] -o out.txt <graph>
//	mixtime communities [-method louvain|lpa] <graph>
//	mixtime rank    [-by pagerank|ppr|betweenness|closeness|degree] <graph>
//	mixtime profile [-k 10] <graph>
//
// Global flags come before the subcommand and apply to any of them:
//
//	-cpuprofile f.pprof   write a CPU profile for the whole invocation
//	-memprofile f.pprof   write a heap profile at exit
//	-trace f.trace        write a runtime execution trace
//
// e.g. `mixtime -cpuprofile slem.pprof slem dataset:physics-1`.
//
// <graph> is an edge-list / binary file (".gz" ok), or a dataset
// reference "dataset:<name>[:scale]" naming one of the paper's
// Table-1 substitutes, e.g. "dataset:physics-1:0.5".
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"mixtime"
	"mixtime/internal/cliutil"
)

func main() {
	// Global flags precede the subcommand; flag parsing stops at the
	// first non-flag argument, which is the subcommand name.
	global := flag.NewFlagSet("mixtime", flag.ExitOnError)
	global.Usage = usageExit
	cpuProfile := global.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := global.String("memprofile", "", "write a heap profile to this file at exit")
	traceFile := global.String("trace", "", "write a runtime execution trace to this file")
	if err := global.Parse(os.Args[1:]); err != nil {
		usageExit()
	}
	args := global.Args()
	if len(args) < 1 {
		usageExit()
	}
	stopProfiles, err := cliutil.StartProfiles(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixtime:", err)
		os.Exit(1)
	}

	// Interrupts cancel the context; the spectral iterations and trace
	// sampling behind slem/measure check it and abort promptly, after
	// which profiles are still flushed below. A second signal
	// hard-exits a wedged run (see cliutil.SignalContext).
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	switch args[0] {
	case "info":
		err = cmdInfo(args[1:])
	case "slem":
		err = cmdSLEM(ctx, args[1:])
	case "measure":
		err = cmdMeasure(ctx, args[1:])
	case "trim":
		err = cmdTrim(args[1:])
	case "sample":
		err = cmdSample(args[1:])
	case "communities":
		err = cmdCommunities(args[1:])
	case "rank":
		err = cmdRank(args[1:])
	case "profile":
		err = cmdProfile(args[1:])
	default:
		stopProfiles() // usageExit never returns
		usageExit()
	}
	// Flush profiles before the error exit so a failed run still
	// yields usable profile data.
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixtime:", err)
		os.Exit(1)
	}
}

func usageExit() {
	fmt.Fprintln(os.Stderr, `usage: mixtime [global flags] <info|slem|measure|trim|sample|communities|rank|profile> [flags] <graph>
  global flags: -cpuprofile f  -memprofile f  -trace f
  <graph> is a file path or "dataset:<name>[:scale]" (see Table 1 names)`)
	os.Exit(2)
}

// loadArg resolves a graph argument: a file path or a dataset
// reference.
func loadArg(arg string) (*mixtime.Graph, error) { return cliutil.LoadGraphArg(arg) }

func positional(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("want exactly one graph argument, got %d", fs.NArg())
	}
	return fs.Arg(0), nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	arg, err := positional(fs)
	if err != nil {
		return err
	}
	g, err := loadArg(arg)
	if err != nil {
		return err
	}
	lcc, _ := mixtime.LargestComponent(g)
	deg := mixtime.Degrees(g)
	fmt.Printf("nodes:           %d\n", g.NumNodes())
	fmt.Printf("edges:           %d\n", g.NumEdges())
	fmt.Printf("degree:          min=%d median=%.0f avg=%.2f p90=%d p99=%d max=%d gini=%.3f\n",
		deg.Min, deg.Median, deg.Mean, deg.P90, deg.P99, deg.Max, deg.Gini)
	fmt.Printf("connected:       %v (largest component: %d nodes, %d edges)\n",
		mixtime.IsConnected(g), lcc.NumNodes(), lcc.NumEdges())
	fmt.Printf("bipartite:       %v\n", mixtime.IsBipartite(lcc))
	fmt.Printf("clustering:      %.4f (transitivity %.4f)\n",
		mixtime.AverageClustering(lcc), mixtime.GlobalClustering(lcc))
	fmt.Printf("assortativity:   %+.4f\n", mixtime.Assortativity(lcc))
	fmt.Printf("mean path (est): %.2f (from 16 BFS sources)\n",
		mixtime.SampledPathLength(lcc, 16, 1))
	fmt.Printf("log n yardstick: %d (walk length Sybil defenses assume)\n",
		mixtime.FastMixingWalkLength(lcc.NumNodes()))
	return nil
}

func cmdSLEM(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("slem", flag.ExitOnError)
	method := fs.String("method", "lanczos", "lanczos or power")
	tol := fs.Float64("tol", 1e-8, "eigenvalue tolerance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arg, err := positional(fs)
	if err != nil {
		return err
	}
	g, err := loadArg(arg)
	if err != nil {
		return err
	}
	lcc, _ := mixtime.LargestComponent(g)
	opt := mixtime.SpectralOptions{Tol: *tol}
	var est *mixtime.SpectralEstimate
	switch *method {
	case "lanczos":
		est, err = mixtime.SLEMContext(ctx, lcc, opt)
	case "power":
		est, err = mixtime.SLEMPowerContext(ctx, lcc, opt)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		return err
	}
	fmt.Printf("µ (SLEM):   %.8f  (λ2=%.8f λn=%.8f, %d matvecs, converged=%v)\n",
		est.Mu, est.Lambda2, est.LambdaN, est.Iterations, est.Converged)
	for _, eps := range []float64{0.25, 0.1, 0.01, 1.0 / float64(lcc.NumNodes())} {
		fmt.Printf("T(ε=%-8.2g) ∈ [%8.1f, %10.1f]  (Sinclair bounds)\n",
			eps, mixtime.MixingLowerBound(est.Mu, eps),
			mixtime.MixingUpperBound(est.Mu, eps, lcc.NumNodes()))
	}
	return nil
}

func cmdMeasure(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	sources := fs.Int("sources", 100, "number of sampled start vertices")
	maxWalk := fs.Int("maxwalk", 200, "maximum propagated walk length")
	epsList := fs.String("eps", "0.25,0.1,0.01", "comma-separated ε values")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arg, err := positional(fs)
	if err != nil {
		return err
	}
	g, err := loadArg(arg)
	if err != nil {
		return err
	}
	m, err := mixtime.MeasureContext(ctx, g, mixtime.Options{
		Sources: *sources, MaxWalk: *maxWalk, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("component: %d nodes, %d edges (bipartite=%v → lazy=%v)\n",
		m.Graph.NumNodes(), m.Graph.NumEdges(), m.Bipartite, m.Chain.IsLazy())
	fmt.Printf("µ (SLEM):  %.8f\n", m.Mu())
	fmt.Printf("log n:     %d\n", m.FastMixingYardstick())
	for _, s := range strings.Split(*epsList, ",") {
		eps, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad ε %q: %v", s, err)
		}
		t, ok := m.SampledMixingTime(eps)
		mark := ""
		if !ok {
			mark = "+ (some sources never reached ε within maxwalk)"
		}
		fmt.Printf("ε=%-8.2g sampled T=%d%s  avg=%.1f  bound=[%.1f, %.1f]\n",
			eps, t, mark, m.AverageMixingTime(eps),
			m.LowerBound(eps), m.UpperBound(eps))
	}
	return nil
}

func cmdTrim(args []string) error {
	fs := flag.NewFlagSet("trim", flag.ExitOnError)
	minDeg := fs.Int("mindeg", 2, "minimum degree to keep")
	out := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arg, err := positional(fs)
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-o is required")
	}
	g, err := loadArg(arg)
	if err != nil {
		return err
	}
	trimmed, _ := mixtime.Trim(g, *minDeg)
	lcc, _ := mixtime.LargestComponent(trimmed)
	fmt.Printf("trimmed to min degree %d: %d → %d nodes (largest component %d)\n",
		*minDeg, g.NumNodes(), trimmed.NumNodes(), lcc.NumNodes())
	return mixtime.SaveGraph(*out, lcc)
}

func cmdCommunities(args []string) error {
	fs := flag.NewFlagSet("communities", flag.ExitOnError)
	method := fs.String("method", "louvain", "louvain or lpa")
	seed := fs.Uint64("seed", 1, "random seed")
	top := fs.Int("top", 10, "largest communities to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arg, err := positional(fs)
	if err != nil {
		return err
	}
	g, err := loadArg(arg)
	if err != nil {
		return err
	}
	lcc, _ := mixtime.LargestComponent(g)
	var labels mixtime.CommunityLabels
	switch *method {
	case "louvain":
		labels = mixtime.Louvain(lcc, *seed)
	case "lpa":
		labels = mixtime.LabelPropagation(lcc, 100, *seed)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	fmt.Printf("communities: %d   modularity Q = %.4f\n",
		labels.NumCommunities(), mixtime.Modularity(lcc, labels))
	sizes := communitySizes(labels)
	for _, c := range sizes[:max(0, min(*top, len(sizes)))] {
		fmt.Printf("  community %-5d %d nodes (%.1f%%)\n",
			c.label, c.size, 100*float64(c.size)/float64(lcc.NumNodes()))
	}
	return nil
}

// community is one community's label and node count.
type community struct {
	label int32
	size  int
}

// communitySizes lists every community of labels, largest first and
// equal sizes by ascending label, so a listing is the same on every
// run.
func communitySizes(labels mixtime.CommunityLabels) []community {
	sizes := map[int32]int{}
	for _, c := range labels {
		sizes[c]++
	}
	out := make([]community, 0, len(sizes))
	for c, n := range sizes {
		out = append(out, community{c, n})
	}
	slices.SortFunc(out, func(a, b community) int {
		if a.size != b.size {
			return cmp.Compare(b.size, a.size)
		}
		return cmp.Compare(a.label, b.label)
	})
	return out
}

func cmdRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	by := fs.String("by", "pagerank", "pagerank, ppr, betweenness, closeness, degree")
	source := fs.Uint("source", 0, "restart node for ppr")
	top := fs.Int("top", 10, "nodes to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arg, err := positional(fs)
	if err != nil {
		return err
	}
	g, err := loadArg(arg)
	if err != nil {
		return err
	}
	lcc, _ := mixtime.LargestComponent(g)
	var scores []float64
	switch *by {
	case "pagerank":
		scores = mixtime.PageRank(lcc, 0.85)
	case "ppr":
		if int(*source) >= lcc.NumNodes() {
			return fmt.Errorf("source %d out of range", *source)
		}
		scores = mixtime.PersonalizedPageRank(lcc, mixtime.NodeID(*source), 0.85)
	case "betweenness":
		if lcc.NumNodes() > 5000 {
			scores = mixtime.SampledBetweenness(lcc, 256, 1)
		} else {
			scores = mixtime.Betweenness(lcc)
		}
	case "closeness":
		scores = mixtime.Closeness(lcc)
	case "degree":
		scores = make([]float64, lcc.NumNodes())
		for v := range scores {
			scores[v] = float64(lcc.Degree(mixtime.NodeID(v)))
		}
	default:
		return fmt.Errorf("unknown ranking %q", *by)
	}
	for i, v := range mixtime.TopNodes(scores, *top) {
		fmt.Printf("%2d. node %-8d %s = %.6g (degree %d)\n",
			i+1, v, *by, scores[v], lcc.Degree(v))
	}
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	k := fs.Int("k", 10, "eigenvalues to compute (λ2..λ_{k+1})")
	tol := fs.Float64("tol", 1e-8, "eigenvalue tolerance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arg, err := positional(fs)
	if err != nil {
		return err
	}
	g, err := loadArg(arg)
	if err != nil {
		return err
	}
	lcc, _ := mixtime.LargestComponent(g)
	prof, err := mixtime.SpectralProfile(lcc, *k, mixtime.SpectralOptions{Tol: *tol})
	if err != nil {
		return err
	}
	near1 := 0
	for i, l := range prof {
		gap := 1 - l
		fmt.Printf("λ%-3d = %.8f   (gap %.2e, bound T(0.1) ≥ %.1f)\n",
			i+2, l, gap, mixtime.MixingLowerBound(l, 0.1))
		if l > 0.9 {
			near1++
		}
	}
	fmt.Printf("eigenvalues above 0.9: %d → roughly %d strong communities\n", near1, near1+1)
	return nil
}

func cmdSample(args []string) error {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	k := fs.Int("k", 10_000, "sample size (BFS)")
	start := fs.Uint("start", 0, "BFS start vertex")
	out := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arg, err := positional(fs)
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-o is required")
	}
	g, err := loadArg(arg)
	if err != nil {
		return err
	}
	if int(*start) >= g.NumNodes() {
		return fmt.Errorf("start vertex %d out of range (n=%d)", *start, g.NumNodes())
	}
	sub, _ := mixtime.BFSSample(g, mixtime.NodeID(*start), *k)
	fmt.Printf("BFS sample from %d: %d nodes, %d edges\n", *start, sub.NumNodes(), sub.NumEdges())
	return mixtime.SaveGraph(*out, sub)
}
