package graphio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

func sameGraph(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	same := true
	a.Edges(func(u, v graph.NodeID) bool {
		if !b.HasEdge(u, v) {
			same = false
			return false
		}
		return true
	})
	return same
}

func TestReadEdgeListBasics(t *testing.T) {
	in := `# SNAP-style comment
% matrix-market-style comment

0	1
1 2
2	0
1	2
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("single-field line accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-numeric accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("-1 2\n")); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := gen.BarabasiAlbert(300, 3, rng)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, back) {
		t.Fatal("edge-list round trip lost edges")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := gen.ErdosRenyi(500, 0.01, rng)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := readBinary(&buf, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, back) {
		t.Fatal("binary round trip lost edges")
	}
}

// writeBinaryV1 emits the legacy edge-pair format so the v1 read path
// keeps test coverage now that WriteBinary produces v2.
func writeBinaryV1(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	hdr := make([]byte, 20)
	binary.LittleEndian.PutUint32(hdr[0:], 1)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(g.NumNodes()))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var werr error
	buf := make([]byte, 8)
	g.Edges(func(u, v graph.NodeID) bool {
		binary.LittleEndian.PutUint32(buf[0:], u)
		binary.LittleEndian.PutUint32(buf[4:], v)
		if _, err := bw.Write(buf); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

func TestBinaryV1LegacyStillReadable(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	g := gen.ErdosRenyi(300, 0.02, rng)
	var buf bytes.Buffer
	if err := writeBinaryV1(&buf, g); err != nil {
		t.Fatal(err)
	}
	size := int64(buf.Len())
	back, err := readBinary(bytes.NewReader(buf.Bytes()), size)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, back) {
		t.Fatal("v1 round trip lost edges")
	}
	// Truncating the payload fails cleanly.
	if _, err := readBinary(bytes.NewReader(buf.Bytes()[:buf.Len()-3]), -1); err == nil {
		t.Fatal("truncated v1 stream accepted")
	}
	// A known size exposes an inflated edge count before allocation.
	inflated := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint64(inflated[16:], 1<<40)
	if _, err := readBinary(bytes.NewReader(inflated), size); err == nil ||
		!strings.Contains(err.Error(), "bytes") {
		t.Fatalf("inflated v1 edge count accepted: %v", err)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := gen.Ring(10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncate mid-payload.
	if _, err := readBinary(bytes.NewReader(data[:len(data)-3]), -1); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Corrupt magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := readBinary(bytes.NewReader(bad), -1); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Corrupt version.
	bad = append([]byte(nil), data...)
	bad[4] = 9
	if _, err := readBinary(bytes.NewReader(bad), -1); err == nil {
		t.Fatal("bad version accepted")
	}
	// Node count past the load limit is rejected up front.
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[8:], MaxLoadNodes+1)
	if _, err := readBinary(bytes.NewReader(bad), -1); err == nil ||
		!strings.Contains(err.Error(), "load limit") {
		t.Fatalf("oversized node count accepted: %v", err)
	}
	// Declared counts larger than the file can hold fail before
	// allocation when the size is known.
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[16:], 1<<40)
	if _, err := readBinary(bytes.NewReader(bad), int64(len(bad))); err == nil ||
		!strings.Contains(err.Error(), "bytes") {
		t.Fatalf("inflated edge count accepted: %v", err)
	}
}

func TestBinaryRejectsBadCSROffsets(t *testing.T) {
	g := gen.Ring(10) // n=10, m=10, degree 2 everywhere
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), data...)
		mutate(b)
		_, err := readBinary(bytes.NewReader(b), int64(len(b)))
		return err
	}
	offsetAt := func(b []byte, i int) []byte { return b[binHeaderLen+8*i:] }
	// Non-monotone: offsets[3] below offsets[2].
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint64(offsetAt(b, 3), 1)
	}); err == nil || !strings.Contains(err.Error(), "non-monotone") {
		t.Fatalf("non-monotone offsets: %v", err)
	}
	// First offset nonzero.
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint64(offsetAt(b, 0), 2)
	}); err == nil || !strings.Contains(err.Error(), "start at") {
		t.Fatalf("nonzero first offset: %v", err)
	}
	// An offset past the adjacency length.
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint64(offsetAt(b, 5), 1<<30)
	}); err == nil || !strings.Contains(err.Error(), "exceeds adjacency") {
		t.Fatalf("out-of-range offset: %v", err)
	}
	// Final offset short of the adjacency length.
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint64(offsetAt(b, 10), 18)
	}); err == nil || !strings.Contains(err.Error(), "end at") {
		t.Fatalf("short final offset: %v", err)
	}
	// An adjacency entry out of node range — caught by CSR validation.
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint32(b[binHeaderLen+8*11:], 99)
	}); err == nil || !strings.Contains(err.Error(), "invalid CSR") {
		t.Fatalf("out-of-range neighbor: %v", err)
	}
}

func TestReadEdgeListRejectsOversizedIDs(t *testing.T) {
	defer func(old uint64) { MaxLoadNodes = old }(MaxLoadNodes)
	MaxLoadNodes = 100
	if _, err := ReadEdgeList(strings.NewReader("0 100\n")); err == nil ||
		!strings.Contains(err.Error(), "load limit") {
		t.Fatalf("oversized endpoint accepted: %v", err)
	}
	if _, err := ReadEdgeList(strings.NewReader("# nodes: 101\n")); err == nil ||
		!strings.Contains(err.Error(), "load limit") {
		t.Fatalf("oversized directive accepted: %v", err)
	}
	// IDs at the cap boundary still load.
	if g, err := ReadEdgeList(strings.NewReader("0 99\n")); err != nil || g.NumNodes() != 100 {
		t.Fatalf("boundary ID rejected: %v", err)
	}
}

func TestFileRoundTripAllFormats(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(7, 8))
	g := gen.WattsStrogatz(200, 3, 0.2, rng)
	for _, name := range []string{"g.txt", "g.txt.gz", "g.mixg", "g.mixg.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !sameGraph(g, back) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestEdgeListPreservesTrailingIsolatedNodes(t *testing.T) {
	b := NewTestBuilderWithIsolated()
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() {
		t.Fatalf("round trip n = %d, want %d", back.NumNodes(), g.NumNodes())
	}
}

// NewTestBuilderWithIsolated builds {0-1} plus isolated trailing
// nodes 2..4.
func NewTestBuilderWithIsolated() *graph.Builder {
	b := graph.NewBuilder(1)
	b.AddEdge(0, 1)
	b.AddNode(4)
	return b
}

// Property: every generated graph survives both round trips intact.
func TestQuickRoundTrips(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		g := gen.ErdosRenyiM(80, 150, rng)
		var txt, bin bytes.Buffer
		if WriteEdgeList(&txt, g) != nil || WriteBinary(&bin, g) != nil {
			return false
		}
		fromTxt, err1 := ReadEdgeList(&txt)
		fromBin, err2 := readBinary(&bin, -1)
		if err1 != nil || err2 != nil {
			return false
		}
		return sameGraph(g, fromTxt) && sameGraph(g, fromBin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
