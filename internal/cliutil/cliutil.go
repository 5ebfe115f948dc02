// Package cliutil holds the small helpers the command-line tools
// share, so cmd/mixtime, cmd/paperfigs, cmd/gensocial and
// cmd/sybilcheck stay thin shells:
//
//   - LoadGraphArg resolves a graph argument that may be a file path
//     (edge-list or binary, ".gz" accepted) or a
//     "dataset:<name>[:scale]" reference into a loaded graph.
//   - StartProfiles turns -cpuprofile/-memprofile/-trace flag values
//     into running runtime/pprof and runtime/trace captures with a
//     single stop function, so every binary exposes the same
//     profiling surface (see README "Profiling & benchmarking").
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mixtime/internal/api"
	"mixtime/internal/datasets"
	"mixtime/internal/graph"
	"mixtime/internal/graphio"
)

// ParseDatasetRef splits "dataset:<name>[:scale]" into its parts;
// ok is false if arg is not a dataset reference. An omitted scale is
// api.DefaultScale; a given one must be finite and positive.
func ParseDatasetRef(arg string) (name string, scale float64, ok bool, err error) {
	rest, ok := strings.CutPrefix(arg, "dataset:")
	if !ok {
		return "", 0, false, nil
	}
	scale = api.DefaultScale
	name = rest
	if i := strings.LastIndex(rest, ":"); i > 0 {
		s, perr := strconv.ParseFloat(rest[i+1:], 64)
		if perr != nil {
			return "", 0, true, fmt.Errorf("bad scale in %q: %v", arg, perr)
		}
		if !(s > 0) || math.IsInf(s, 1) {
			return "", 0, true, fmt.Errorf("scale must be finite and positive in %q", arg)
		}
		scale, name = s, rest[:i]
	}
	return name, scale, true, nil
}

// LoadGraphArg resolves a graph argument: a dataset reference is
// generated (seed 1), anything else loads as a file.
func LoadGraphArg(arg string) (*graph.Graph, error) {
	name, scale, isRef, err := ParseDatasetRef(arg)
	if err != nil {
		return nil, err
	}
	if isRef {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		return d.Generate(scale, 1), nil
	}
	return graphio.LoadFile(arg)
}
