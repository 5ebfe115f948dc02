// Package graphio reads and writes graphs. Two formats are
// supported:
//
//   - Edge-list text, compatible with the SNAP dataset files the
//     paper's public datasets ship as: one "u<sep>v" pair per line,
//     '#' or '%' comment lines ignored, whitespace- or tab-separated,
//     directed duplicates tolerated (the builder symmetrizes). Files
//     ending in .gz are transparently (de)compressed.
//
//   - A compact binary CSR snapshot ("MIXG" format, version 2) for
//     fast reload of large generated graphs. It stores the CSR arrays
//     directly (offsets + symmetrized adjacency), so loading skips
//     the builder's sort entirely.
//
// All readers are hardened against corrupt or truncated input:
// declared node/edge counts are sanity-capped against the file size
// (when known) and against MaxLoadNodes before anything is
// allocated, payloads are read incrementally so truncation fails
// fast, and every malformed input returns a wrapped error — readers
// never panic (fuzz-verified; see fuzz_test.go).
package graphio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"mixtime/internal/atomicfile"
	"mixtime/internal/graph"
)

// DefaultMaxLoadNodes bounds the node count any reader accepts:
// 2^28 (~268M) nodes covers every dataset of the paper's evaluation
// at full scale with two orders of magnitude of headroom, while a
// corrupt header declaring billions of vertices is rejected before
// the CSR arrays it implies are allocated.
const DefaultMaxLoadNodes = 1 << 28

// MaxLoadNodes is the node-count cap the readers enforce on untrusted
// input (node directives, edge endpoints, binary headers). Raise it
// before loading a genuinely larger graph; the fuzz targets lower it.
// It guards allocation size, not correctness: graphs under the cap
// load identically for any setting above their node count.
var MaxLoadNodes uint64 = DefaultMaxLoadNodes

// maxEdgeLines bounds the edge lines ReadEdgeList accepts: 2³¹−1
// edges are the most whose adjacency length 2m fits a graph's uint32
// CSR offsets, so the Builder never sees an input it would refuse.
// Tests lower it.
var maxEdgeLines = math.MaxUint32 / 2

// checkNodeID rejects node IDs at or above MaxLoadNodes.
func checkNodeID(lineNo int, id uint64) error {
	if id >= MaxLoadNodes {
		return fmt.Errorf("graphio: line %d: node %d exceeds load limit %d (raise graphio.MaxLoadNodes for larger graphs)",
			lineNo, id, MaxLoadNodes)
	}
	return nil
}

// ReadEdgeList parses an edge-list stream into a graph.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	b := graph.NewBuilder(1024)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			// "# nodes: N" is this package's directive preserving
			// trailing isolated vertices, which bare edge lists cannot
			// express; other comments (SNAP headers) are skipped.
			if rest, ok := strings.CutPrefix(line, "# nodes:"); ok {
				n, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 32)
				if err != nil {
					return nil, fmt.Errorf("graphio: line %d: bad nodes directive: %v", lineNo, err)
				}
				if n > 0 {
					if err := checkNodeID(lineNo, n-1); err != nil {
						return nil, err
					}
					b.AddNode(graph.NodeID(n - 1))
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: line %d: want 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
		}
		if err := checkNodeID(lineNo, u); err != nil {
			return nil, err
		}
		if err := checkNodeID(lineNo, v); err != nil {
			return nil, err
		}
		if b.NumPendingEdges() == maxEdgeLines {
			return nil, fmt.Errorf("graphio: line %d: edge list exceeds %d edges, the uint32 CSR limit", lineNo, maxEdgeLines)
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return b.Build(), nil
}

// WriteEdgeList writes the graph as "u\tv" lines, one per undirected
// edge, preceded by a "# nodes:" directive so trailing isolated
// vertices survive the round trip.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nodes: %d\n", g.NumNodes())
	fmt.Fprintf(bw, "# undirected edges: %d\n", g.NumEdges())
	var werr error
	g.Edges(func(u, v graph.NodeID) bool {
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", u, v); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return fmt.Errorf("graphio: %w", werr)
	}
	return bw.Flush()
}

// LoadFile reads a graph from path. ".gz" suffixes are decompressed;
// a "MIXG" magic selects the binary format, anything else parses as
// edge-list text. For uncompressed binary files the file size bounds
// the declared node/edge counts before any allocation.
func LoadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	size := int64(-1) // unknown (compressed) by default
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("graphio: %w", err)
		}
		defer zr.Close()
		r = zr
	} else if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(4)
	if err == nil && string(magic) == binMagic {
		return readBinary(br, size)
	}
	return ReadEdgeList(br)
}

// SaveFile writes a graph to path: binary if the name ends in .mixg
// (optionally .mixg.gz), edge-list text otherwise (optionally .gz).
// The file is published through atomicfile, so a reader holding the
// previous file at path (open, or mapped by OpenMIXGMapped) keeps
// reading its bytes, and a failed save leaves path as it was.
func SaveFile(path string, g *graph.Graph) error {
	return atomicfile.Write(path, 0o644, func(f *os.File) error {
		var w io.Writer = f
		var zw *gzip.Writer
		if strings.HasSuffix(path, ".gz") {
			zw = gzip.NewWriter(f)
			w = zw
		}
		var err error
		if strings.HasSuffix(strings.TrimSuffix(path, ".gz"), ".mixg") {
			err = WriteBinary(w, g)
		} else {
			err = WriteEdgeList(w, g)
		}
		if err == nil && zw != nil {
			err = zw.Close()
		}
		return err
	})
}

const (
	binMagic = "MIXG"
	// binHeaderLen is the MIXG header's length: 4-byte magic, u32
	// version (2), u64 node count, u64 edge count.
	binHeaderLen = 24
	// chunkEntries is the incremental-read granularity for binary
	// payload arrays: corrupt headers fail at the first short read
	// instead of after one giant up-front allocation.
	chunkEntries = 1 << 16
)

// mixgLayout is what a MIXG v2 header declares, and the one owner of
// the layout that follows it: n+1 uint64 CSR offsets, then the 2m
// uint32 entries of the symmetrized adjacency.
type mixgLayout struct{ n, m uint64 }

// nOff and nAdj are the lengths of the offset and adjacency arrays.
func (l mixgLayout) nOff() int64 { return int64(l.n) + 1 }
func (l mixgLayout) nAdj() int64 { return 2 * int64(l.m) }

// adjStart is the byte offset of the adjacency array, 24+8(n+1),
// which is 4-aligned.
func (l mixgLayout) adjStart() int64 { return binHeaderLen + 8*l.nOff() }

// size is the snapshot's length in bytes.
func (l mixgLayout) size() int64 { return l.adjStart() + 4*l.nAdj() }

// writeHeader writes the header that declares l.
func (l mixgLayout) writeHeader(w io.Writer) error {
	var hdr [binHeaderLen]byte
	copy(hdr[:], binMagic)
	binary.LittleEndian.PutUint32(hdr[4:], 2) // version
	binary.LittleEndian.PutUint64(hdr[8:], l.n)
	binary.LittleEndian.PutUint64(hdr[16:], l.m)
	_, err := w.Write(hdr[:])
	return err
}

// checkAdjacency rejects an adjacency longer than a graph's uint32
// CSR offsets can index. It tests m itself: 2m may wrap.
func (l mixgLayout) checkAdjacency() error {
	if l.m > math.MaxUint32/2 {
		return fmt.Errorf("graphio: adjacency length 2×%d exceeds the uint32 CSR form", l.m)
	}
	return nil
}

// parseHeader checks a MIXG header before anything it declares is
// allocated: the magic, version 2, the node count against
// MaxLoadNodes, the payload against size when that is known (size ≥
// 0; compressed and streamed input pass a negative size), and the
// adjacency length against the uint32 CSR form.
func parseHeader(hdr []byte, size int64) (mixgLayout, error) {
	if string(hdr[:4]) != binMagic {
		return mixgLayout{}, fmt.Errorf("graphio: bad magic %q", hdr[:4])
	}
	if ver := binary.LittleEndian.Uint32(hdr[4:]); ver != 2 {
		return mixgLayout{}, fmt.Errorf("graphio: unsupported version %d", ver)
	}
	l := mixgLayout{n: binary.LittleEndian.Uint64(hdr[8:]), m: binary.LittleEndian.Uint64(hdr[16:])}
	if l.n > MaxLoadNodes {
		return mixgLayout{}, fmt.Errorf("graphio: node count %d exceeds load limit %d (raise graphio.MaxLoadNodes for larger graphs)",
			l.n, MaxLoadNodes)
	}
	if size >= 0 && l.size() > size {
		return mixgLayout{}, fmt.Errorf("graphio: CSR of %d nodes / %d edges needs %d bytes, file has %d",
			l.n, l.m, l.size(), size)
	}
	if err := l.checkAdjacency(); err != nil {
		return mixgLayout{}, err
	}
	return l, nil
}

// WriteBinary writes the compact binary CSR snapshot (version 2):
// the header, then the n+1 CSR offsets as uint64s, then the 2m
// symmetrized adjacency entries as uint32s. Loading a v2 snapshot
// validates and adopts the arrays directly — no re-sorting — so
// large generated graphs reload in O(m).
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if err := (mixgLayout{uint64(g.NumNodes()), uint64(g.NumEdges())}).writeHeader(bw); err != nil {
		return err
	}
	// The graph's own arrays stream out as they are, offsets widened
	// on the way; a zero-node graph has no offset array but still
	// writes its single zero offset.
	offsets := g.Offsets32()
	if offsets == nil {
		offsets = []uint32{0}
	}
	var buf [8]byte
	for _, off := range offsets {
		binary.LittleEndian.PutUint64(buf[:], uint64(off))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
	}
	for _, v := range g.Adjacency() {
		binary.LittleEndian.PutUint32(buf[:4], v)
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readBinary reads a MIXG version 2 snapshot. size is the total
// input length in bytes when known, or negative when it is not
// (compressed or streamed input); a known size caps the declared
// counts before anything is allocated. The CSR payload is validated
// (monotone offsets, sorted in-range symmetric adjacency) and adopted
// without rebuilding. The offsets are narrowed to the graph's compact
// uint32 form as they stream past, so the load allocates exactly the
// arrays the graph keeps — no widening copy.
func readBinary(r io.Reader, size int64) (*graph.Graph, error) {
	hdr := make([]byte, binHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("graphio: short binary header: %w", err)
	}
	l, err := parseHeader(hdr, size)
	if err != nil {
		return nil, err
	}
	nOff, nAdj := l.nOff(), l.nAdj()
	offsets := make([]uint32, 0, min(uint64(nOff), chunkEntries))
	buf := make([]byte, 8*chunkEntries)
	for read := int64(0); read < nOff; {
		batch := min(nOff-read, chunkEntries)
		if _, err := io.ReadFull(r, buf[:8*batch]); err != nil {
			return nil, fmt.Errorf("graphio: truncated at offset %d of %d: %w", read, nOff, err)
		}
		for i := int64(0); i < batch; i++ {
			off := binary.LittleEndian.Uint64(buf[8*i:])
			switch {
			case off > uint64(nAdj):
				return nil, fmt.Errorf("graphio: CSR offset %d of node %d exceeds adjacency length %d",
					off, read+i, nAdj)
			case len(offsets) == 0 && off != 0:
				return nil, fmt.Errorf("graphio: CSR offsets start at %d, want 0", off)
			case len(offsets) > 0 && uint32(off) < offsets[len(offsets)-1]:
				return nil, fmt.Errorf("graphio: non-monotone CSR offsets at node %d (%d after %d)",
					read+i, off, offsets[len(offsets)-1])
			}
			offsets = append(offsets, uint32(off))
		}
		read += batch
	}
	if last := int64(offsets[len(offsets)-1]); last != nAdj {
		return nil, fmt.Errorf("graphio: CSR offsets end at %d, want adjacency length %d", last, nAdj)
	}
	neighbors := make([]graph.NodeID, 0, min(uint64(nAdj), chunkEntries))
	for read := int64(0); read < nAdj; {
		batch := min(nAdj-read, chunkEntries)
		if _, err := io.ReadFull(r, buf[:4*batch]); err != nil {
			return nil, fmt.Errorf("graphio: truncated at adjacency entry %d of %d: %w", read, nAdj, err)
		}
		for i := int64(0); i < batch; i++ {
			neighbors = append(neighbors, binary.LittleEndian.Uint32(buf[4*i:]))
		}
		read += batch
	}
	g, err := graph.FromCSR32(offsets, neighbors)
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return g, nil
}
