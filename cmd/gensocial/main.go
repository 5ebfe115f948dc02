// Command gensocial emits synthetic social graphs: either one of the
// paper's Table-1 dataset substitutes or a raw generator model.
//
// Usage:
//
//	gensocial -dataset physics-1 -scale 0.5 -o physics1.txt
//	gensocial -model ba      -n 100000 -k 5            -o ba.txt.gz
//	gensocial -model er      -n 10000  -p 0.001        -o er.txt
//	gensocial -model ws      -n 10000  -k 4  -beta 0.1 -o ws.txt
//	gensocial -model caveman -n 10000  -k 8  -p 0.03   -o cave.mixg
//	gensocial -model sbm     -n 10000  -k 10 -pin 0.05 -pout 0.0005 -o sbm.txt
//
// The ringer model (ring lattice + ER shortcuts) additionally
// supports -stream, which pipes the generator straight into a
// streamed on-disk MIXG build — no in-RAM edge list — so node counts
// far beyond RAM are practical:
//
//	gensocial -model ringer -n 10000000 -k 10 -p 1e-7 -stream -o big.mixg
//
// -list prints the available dataset names.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mixtime"
)

func main() {
	dataset := flag.String("dataset", "", "Table-1 dataset substitute to generate")
	scale := flag.Float64("scale", 0.01, "dataset scale factor")
	model := flag.String("model", "", "raw model: ba, er, ws, ringer, caveman, sbm, forestfire, kleinberg, holmekim")
	n := flag.Int("n", 10_000, "node count")
	k := flag.Int("k", 5, "model degree/attachment/clique/community parameter")
	p := flag.Float64("p", 0.01, "model probability (er: edge, caveman: rewire)")
	beta := flag.Float64("beta", 0.1, "ws rewiring probability")
	pin := flag.Float64("pin", 0.05, "sbm intra-community probability")
	pout := flag.Float64("pout", 0.0005, "sbm inter-community probability")
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("o", "", "output file (required; .gz / .mixg supported)")
	stream := flag.Bool("stream", false, "stream the graph to a .mixg file without building it in RAM (ringer model only)")
	list := flag.Bool("list", false, "list dataset names and exit")
	flag.Parse()

	if *list {
		for _, d := range mixtime.Datasets() {
			fmt.Printf("%-14s %-12s n=%-8d m=%-9d µ=%.4f\n",
				d.Name, d.Kind, d.PaperNodes, d.PaperEdges, d.PaperMu)
		}
		return
	}
	if err := run(*dataset, *scale, *model, *n, *k, *p, *beta, *pin, *pout, *seed, *out, *stream); err != nil {
		fmt.Fprintln(os.Stderr, "gensocial:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, model string, n, k int, p, beta, pin, pout float64, seed uint64, out string, stream bool) error {
	if out == "" {
		return fmt.Errorf("-o is required")
	}
	if stream {
		if model != "ringer" {
			return fmt.Errorf("-stream requires -model ringer")
		}
		if filepath.Ext(out) != ".mixg" {
			return fmt.Errorf("-stream writes an uncompressed binary snapshot; use a .mixg output (got %s)", out)
		}
		if err := mixtime.SaveGraphStreamed(out, uint64(n), mixtime.RingERStream(uint64(n), k, p, seed)); err != nil {
			return err
		}
		fmt.Printf("streamed %d nodes → %s\n", n, out)
		return nil
	}
	var g *mixtime.Graph
	switch {
	case dataset != "":
		if !(scale > 0) || math.IsInf(scale, 1) {
			return fmt.Errorf("-scale must be finite and positive, got %v", scale)
		}
		d, err := mixtime.DatasetByName(dataset)
		if err != nil {
			return err
		}
		g = d.Generate(scale, seed)
	case model != "":
		switch model {
		case "ba":
			g = mixtime.BarabasiAlbert(n, k, seed)
		case "er":
			g = mixtime.ErdosRenyi(n, p, seed)
		case "ws":
			g = mixtime.WattsStrogatz(n, k, beta, seed)
		case "ringer":
			var edges []mixtime.Edge
			err := mixtime.RingERStream(uint64(n), k, p, seed)(func(u, v mixtime.NodeID) error {
				edges = append(edges, mixtime.Edge{U: u, V: v})
				return nil
			})
			if err != nil {
				return err
			}
			if g, err = mixtime.FromEdges(n, edges); err != nil {
				return err
			}
		case "caveman":
			g = mixtime.RelaxedCaveman(n/k, k, p, seed)
		case "sbm":
			g = mixtime.PlantedPartition(k, n/k, pin, pout, seed)
		case "forestfire":
			g = mixtime.ForestFire(n, p, seed)
		case "kleinberg":
			side := 1
			for side*side < n {
				side++
			}
			g = mixtime.Kleinberg(side, 2, seed)
		case "holmekim":
			g = mixtime.HolmeKim(n, k, p, seed)
		default:
			return fmt.Errorf("unknown model %q", model)
		}
	default:
		return fmt.Errorf("one of -dataset or -model is required")
	}
	fmt.Printf("generated %d nodes, %d edges → %s\n", g.NumNodes(), g.NumEdges(), out)
	return mixtime.SaveGraph(out, g)
}
