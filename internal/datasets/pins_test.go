package datasets

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixtime/internal/graph"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/csr_sha256.txt")

const pinFile = "testdata/csr_sha256.txt"

// csrDigest is sha256(offsets ‖ adjacency), both little-endian uint32:
// the exact bytes every solver reads, so any change in node order,
// row order or deduplication shows.
func csrDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [4]byte
	for _, a := range [][]uint32{g.Offsets32(), g.Adjacency()} {
		for _, x := range a {
			binary.LittleEndian.PutUint32(buf[:], x)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

type pinned struct {
	name string
	g    *graph.Graph
}

// pinnedGraphs is what TestGeneratePinned hashes: all fifteen Table-1
// substitutes at scale 0.005, seed 1, then the transforms the
// experiments apply to them, on dblp (the one substitute whose 3-core
// is disconnected, so LargestComponent drops nodes and BFS relabels
// out of order).
func pinnedGraphs() []pinned {
	var out []pinned
	for _, d := range All() {
		out = append(out, pinned{d.Name, d.Generate(0.005, 1)})
	}
	d, _ := ByName("dblp")
	g := d.Generate(0.005, 1)
	lcc, _ := graph.LargestComponent(g)
	core, _ := graph.Trim(g, 3)
	coreLCC, _ := graph.LargestComponent(core)
	bfs, _ := graph.BFSSubgraph(g, 0, g.NumNodes()/3)
	return append(out,
		pinned{"dblp/LargestComponent", lcc},
		pinned{"dblp/Trim3", core},
		pinned{"dblp/Trim3/LargestComponent", coreLCC},
		pinned{"dblp/BFSSubgraph", bfs})
}

// TestGeneratePinned holds every substitute's CSR, and the CSRs of
// LargestComponent, Trim and BFSSubgraph, to the bytes recorded in
// testdata/csr_sha256.txt. Graph construction may get faster; it may
// not change a single offset or neighbor. Re-record a deliberate
// change with `go test ./internal/datasets -run '^TestGeneratePinned$' -update`.
func TestGeneratePinned(t *testing.T) {
	var got strings.Builder
	for _, p := range pinnedGraphs() {
		if err := p.g.Validate(); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		fmt.Fprintf(&got, "%s n=%d m=%d %s\n", p.name, p.g.NumNodes(), p.g.NumEdges(), csrDigest(p.g))
	}
	if *updatePins {
		if err := os.MkdirAll(filepath.Dir(pinFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(want)))
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		wantLines[name] = sc.Text()
	}
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d pinned graphs, %s has %d", len(gotLines), pinFile, len(wantLines))
	}
	for _, line := range gotLines {
		name, _, _ := strings.Cut(line, " ")
		if wantLines[name] != line {
			t.Errorf("pin changed:\n got  %s\n want %s", line, wantLines[name])
		}
	}
}
