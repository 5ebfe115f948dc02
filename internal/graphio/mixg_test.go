package graphio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

// graphStream adapts a materialized graph into the replayable
// lex-ordered EdgeStream the streaming writer requires (Edges already
// iterates u ascending with sorted neighbors).
func graphStream(g *graph.Graph) EdgeStream {
	return func(emit func(u, v graph.NodeID) error) error {
		var err error
		g.Edges(func(u, v graph.NodeID) bool {
			err = emit(u, v)
			return err == nil
		})
		return err
	}
}

// equalCSR asserts two graphs have identical CSR content.
func equalCSR(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("shape mismatch: want %v, got %v", want, got)
	}
	var wb, gb bytes.Buffer
	if err := WriteBinary(&wb, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&gb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatal("CSR content differs between loaders")
	}
}

func parityGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"ring":      gen.Ring(17),
		"star":      gen.Star(9),
		"complete":  gen.Complete(6),
		"singleton": gen.Ring(1),
		"empty":     graph.NewBuilder(0).Build(),
		"ws": gen.WattsStrogatz(200, 6, 0.3,
			rand.New(rand.NewPCG(11, 11))),
	}
}

func TestOpenMIXGMappedParityV2(t *testing.T) {
	dir := t.TempDir()
	for name, g := range parityGraphs(t) {
		path := filepath.Join(dir, name+".mixg")
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inRAM, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: LoadFile: %v", name, err)
		}
		mg, err := OpenMIXGMapped(path)
		if err != nil {
			t.Fatalf("%s: OpenMIXGMapped: %v", name, err)
		}
		if mmapSupported && hostLittleEndian && !mg.Mapped() {
			t.Errorf("%s: expected a file-backed mapping on this platform", name)
		}
		equalCSR(t, inRAM, mg.Graph)
		equalCSR(t, g, mg.Graph)
		if err := mg.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if err := mg.Close(); err != nil { // idempotent
			t.Fatalf("%s: second Close: %v", name, err)
		}
	}
}

func TestOpenMIXGMappedFallbacks(t *testing.T) {
	g := gen.Ring(12)
	dir := t.TempDir()

	// gzip goes through the streamed reader, edge lists through the
	// text parser.
	gz := filepath.Join(dir, "ring.mixg.gz")
	if err := SaveFile(gz, g); err != nil {
		t.Fatal(err)
	}
	txt := filepath.Join(dir, "ring.txt")
	if err := SaveFile(txt, g); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{gz, txt} {
		mg, err := OpenMIXGMapped(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if mg.Mapped() {
			t.Errorf("%s: fallback input unexpectedly mapped", path)
		}
		equalCSR(t, g, mg.Graph)
		if err := mg.Close(); err != nil {
			t.Fatalf("%s: Close on fallback: %v", path, err)
		}
	}
}

func TestOpenMIXGMappedHonorsMaxLoadNodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.mixg")
	if err := SaveFile(path, gen.Ring(64)); err != nil {
		t.Fatal(err)
	}
	old := MaxLoadNodes
	MaxLoadNodes = 16
	defer func() { MaxLoadNodes = old }()
	if _, err := OpenMIXGMapped(path); err == nil {
		t.Fatal("expected load-limit error")
	}
}

func TestOpenMIXGMappedRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, gen.Ring(16)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name+".mixg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := map[string][]byte{}
	// Truncations at every structural boundary.
	for _, cut := range []int{len(good) - 1, len(good) / 2, binHeaderLen + 4, binHeaderLen, 3} {
		cases[fmt.Sprintf("truncated-%d", cut)] = append([]byte(nil), good[:cut]...)
	}
	// Header lies: edge count inflated past the file.
	lying := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(lying[16:], 1<<40)
	cases["lying-edge-count"] = lying
	// Non-monotone offsets break CSR validation.
	broken := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(broken[binHeaderLen+8:], 1<<30)
	cases["broken-offset"] = broken
	// Adjacency out of node range.
	badAdj := append([]byte(nil), good...)
	adjOff := binHeaderLen + 8*17
	binary.LittleEndian.PutUint32(badAdj[adjOff:], 9999)
	cases["bad-neighbor"] = badAdj

	for name, data := range cases {
		path := write(name, data)
		mg, err := OpenMIXGMapped(path)
		if err == nil {
			// A short truncation can degrade to the edge-list parser
			// fallback; that must still yield a valid graph.
			if verr := mg.Graph.Validate(); verr != nil {
				t.Errorf("%s: accepted invalid graph: %v", name, verr)
			}
			mg.Close()
			continue
		}
	}
	// The full-size corrupt cases must fail identically to LoadFile.
	for _, name := range []string{"lying-edge-count", "broken-offset", "bad-neighbor"} {
		path := filepath.Join(dir, name+".mixg")
		_, merr := OpenMIXGMapped(path)
		_, lerr := LoadFile(path)
		if (merr == nil) != (lerr == nil) {
			t.Errorf("%s: mapped err=%v but LoadFile err=%v", name, merr, lerr)
		}
		if merr == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

func TestWriteMIXGStreamedByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for name, g := range parityGraphs(t) {
		var want bytes.Buffer
		if err := WriteBinary(&want, g); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".mixg")
		if err := WriteMIXGStreamed(path, uint64(g.NumNodes()), graphStream(g)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got) {
			t.Fatalf("%s: streamed file differs from WriteBinary (%d vs %d bytes)",
				name, want.Len(), len(got))
		}
		// And it round-trips through both loaders.
		mg, err := OpenMIXGMapped(path)
		if err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		equalCSR(t, g, mg.Graph)
		mg.Close()
	}
}

func TestWriteMIXGStreamedRejectsBadStreams(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name+".mixg") }
	lit := func(edges ...[2]graph.NodeID) EdgeStream {
		return func(emit func(u, v graph.NodeID) error) error {
			for _, e := range edges {
				if err := emit(e[0], e[1]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	cases := map[string]struct {
		n      uint64
		stream EdgeStream
	}{
		"out-of-range": {3, lit([2]graph.NodeID{0, 5})},
		"self-loop":    {3, lit([2]graph.NodeID{1, 1})},
		"unordered":    {3, lit([2]graph.NodeID{2, 1})},
		"duplicate":    {3, lit([2]graph.NodeID{0, 1}, [2]graph.NodeID{0, 1})},
		"lex-broken":   {4, lit([2]graph.NodeID{1, 2}, [2]graph.NodeID{0, 3})},
	}
	for name, tc := range cases {
		if err := WriteMIXGStreamed(path(name), tc.n, tc.stream); err == nil {
			t.Errorf("%s: expected error", name)
		}
		if _, err := os.Stat(path(name)); !os.IsNotExist(err) {
			t.Errorf("%s: failed write left the file behind", name)
		}
	}

	// Non-replayable stream: second pass emits a different edge set.
	calls := 0
	flaky := func(emit func(u, v graph.NodeID) error) error {
		calls++
		if calls == 1 {
			if err := emit(0, 1); err != nil {
				return err
			}
			return emit(1, 2)
		}
		return emit(0, 1)
	}
	if err := WriteMIXGStreamed(path("flaky"), 3, EdgeStream(flaky)); err == nil {
		t.Error("non-replayable stream accepted")
	}

	old := MaxLoadNodes
	MaxLoadNodes = 8
	if err := WriteMIXGStreamed(path("toobig"), 9, lit()); err == nil {
		t.Error("expected load-limit error")
	}
	MaxLoadNodes = old
}

func TestWriteMIXGStreamedRingER(t *testing.T) {
	// End-to-end: the generator's stream, counting-sorted to disk,
	// is byte-identical to materializing the same edges in RAM and
	// writing them — so 10M-node generation needs no edge list.
	const n, k = 4096, 6
	stream := EdgeStream(gen.RingER(n, k, 0.002, 99))
	path := filepath.Join(t.TempDir(), "ringer.mixg")
	if err := WriteMIXGStreamed(path, n, stream); err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	if err := stream(func(u, v graph.NodeID) error {
		edges = append(edges, graph.Edge{U: u, V: v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteBinary(&want, g); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatal("streamed RingER file differs from materialized WriteBinary")
	}
	mg, err := OpenMIXGMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	equalCSR(t, g, mg.Graph)
	mg.Close()
}

func TestWriteMIXGStreamedEmptyAndIsolated(t *testing.T) {
	// Zero edges, trailing isolated nodes: offsets all zero, no
	// adjacency bytes.
	path := filepath.Join(t.TempDir(), "empty.mixg")
	none := func(emit func(u, v graph.NodeID) error) error { return nil }
	if err := WriteMIXGStreamed(path, 5, EdgeStream(none)); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got %v, want 5 nodes / 0 edges", g)
	}
}

// TestRewriteKeepsMappedReader: SaveFile and WriteMIXGStreamed each
// rewrite, with a much smaller graph, a snapshot that OpenMIXGMapped
// holds — as `mixtimed -mmap` holds its snapshots while a new one is
// saved. Every adjacency entry of the mapped graph must still read
// the old snapshot, and the path must hold the new one under mode
// 0644. A writer that truncated the file in place would fault the
// reader past the new end of file (SIGBUS).
func TestRewriteKeepsMappedReader(t *testing.T) {
	if !mmapSupported || !hostLittleEndian {
		t.Skip("no memory mapping on this platform")
	}
	old := gen.WattsStrogatz(2000, 8, 0.3, rand.New(rand.NewPCG(5, 5)))
	small := gen.Ring(3)
	writers := map[string]func(path string) error{
		"SaveFile": func(path string) error { return SaveFile(path, small) },
		"WriteMIXGStreamed": func(path string) error {
			return WriteMIXGStreamed(path, uint64(small.NumNodes()), graphStream(small))
		},
	}
	for name, rewrite := range writers {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.mixg")
			if err := SaveFile(path, old); err != nil {
				t.Fatal(err)
			}
			mg, err := OpenMIXGMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mg.Close()
			if !mg.Mapped() {
				t.Fatal("snapshot not mapped")
			}
			if err := rewrite(path); err != nil {
				t.Fatal(err)
			}
			// A fault reading the mapping panics instead of killing the
			// test binary, so a truncating writer fails here by name.
			defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("reading the mapped graph after the rewrite faulted: %v", r)
					}
				}()
				want, got := old.Adjacency(), mg.Adjacency()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("mapped adjacency[%d] = %d after the rewrite, want %d", i, got[i], want[i])
					}
				}
			}()
			g, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			equalCSR(t, small, g)
			if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
				t.Errorf("rewritten snapshot: %v, %v; want mode 0644", st.Mode().Perm(), err)
			}
		})
	}
}
