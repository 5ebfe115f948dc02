package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"

	"mixtime/internal/atomicfile"
	"mixtime/internal/graph"
)

// hostLittleEndian reports whether the CPU stores multi-byte integers
// little-endian — the MIXG on-disk order. Only then can the mapped
// adjacency bytes be reinterpreted as a []graph.NodeID in place; on a
// big-endian host OpenMIXGMapped silently falls back to the streamed
// reader.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MappedGraph is a graph whose adjacency array is backed directly by
// a memory-mapped MIXG file: the kernel pages neighbor lists in on
// first touch and may evict them under pressure, so a 10M-node graph
// "loads" in the time it takes to read the n+1 offsets.
//
// Lifecycle rules: the embedded Graph (and every slice handed out
// through it, including Adjacency and Neighbors) is valid only until
// Close; touching it afterwards faults. The mapping is read-only —
// writing through Adjacency segfaults rather than corrupting the
// file. When the fallback path loaded the graph into the heap
// (compressed input, edge-list text, non-linux, big-endian hosts),
// Close is a no-op and the Graph lives as long as any reference.
type MappedGraph struct {
	*graph.Graph
	data []byte
}

// Mapped reports whether the graph is actually file-backed (false
// when a fallback loaded it into the heap).
func (mg *MappedGraph) Close() error {
	if mg.data == nil {
		return nil
	}
	data := mg.data
	mg.data = nil
	mg.Graph = nil
	return munmap(data)
}

// Mapped reports whether the adjacency is file-backed.
func (mg *MappedGraph) Mapped() bool { return mg.data != nil }

// OpenMIXGMapped opens an uncompressed MIXG v2 snapshot with its
// adjacency array memory-mapped in place. The n+1 uint64 offsets are
// narrowed into a fresh uint32 array (O(n) heap — the price of
// halving every later CSR pass), the adjacency is the mapped file
// bytes themselves (they start at byte 24+8(n+1), which is 4-aligned,
// and graph.NodeID is a little-endian-compatible uint32), and the
// same structural validation as ReadMIXG runs before the graph is
// returned. Inputs the mapping cannot serve — gzip, edge-list text,
// big-endian hosts, platforms without mmap — fall back to LoadFile
// transparently; check Mapped when the distinction matters.
func OpenMIXGMapped(path string) (*MappedGraph, error) {
	mg, err := openMapped(path)
	if mg != nil || err != nil {
		return mg, err
	}
	// Structured fallback: anything mmap can't serve loads heap-backed.
	g, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &MappedGraph{Graph: g}, nil
}

// openMapped is the mmap fast path. A (nil, nil) return means "not
// mappable, fall back"; a non-nil error with nil graph is fatal.
func openMapped(path string) (*MappedGraph, error) {
	if !mmapSupported || !hostLittleEndian {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	hdr := make([]byte, binHeaderLen)
	if n, err := f.ReadAt(hdr, 0); err != nil || n < binHeaderLen || string(hdr[:4]) != binMagic {
		return nil, nil // too short for a MIXG header, or not one: edge list, gzip or corrupt; fall back
	}
	l, err := parseHeader(hdr, size)
	if err != nil {
		return nil, err
	}
	data, err := mmapRead(f, size)
	if err != nil {
		return nil, fmt.Errorf("graphio: mmap %s: %w", path, err)
	}
	g, err := adoptMapped(data, l)
	if err != nil {
		munmap(data)
		return nil, err
	}
	return &MappedGraph{Graph: g, data: data}, nil
}

// adoptMapped builds the graph over a mapped v2 payload: offsets
// narrowed out of the file, adjacency aliased in place.
func adoptMapped(data []byte, l mixgLayout) (*graph.Graph, error) {
	nOff, nAdj := l.nOff(), l.nAdj()
	offsets := make([]uint32, nOff)
	offBytes := data[binHeaderLen:]
	for i := int64(0); i < nOff; i++ {
		off := binary.LittleEndian.Uint64(offBytes[8*i:])
		if off > uint64(nAdj) {
			return nil, fmt.Errorf("graphio: CSR offset %d of node %d exceeds adjacency length %d",
				off, i, nAdj)
		}
		offsets[i] = uint32(off)
	}
	var neighbors []graph.NodeID
	if nAdj > 0 {
		neighbors = unsafe.Slice((*graph.NodeID)(unsafe.Pointer(&data[l.adjStart()])), nAdj)
	}
	g, err := graph.FromCSR32(offsets, neighbors)
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return g, nil
}

// EdgeStream produces each undirected edge of a graph exactly once as
// an ordered (u, v) pair with u < v, in ascending lexicographic
// order, by calling emit. It must be replayable: the streaming writer
// runs it twice (degree-count pass, placement pass) and requires
// identical output both times. emit's error aborts the stream.
type EdgeStream func(emit func(u, v graph.NodeID) error) error

// WriteMIXGStreamed writes a MIXG v2 snapshot of an n-node graph at
// path from a replayable lex-ordered edge stream, without ever
// materializing the edge list or adjacency in RAM: pass 1 counts
// degrees (O(n) heap), then the header and offsets stream out through
// a buffered writer, and pass 2 scatter-places both directions of
// each edge into the memory-mapped adjacency region of the output
// file — lex order makes every node's arrivals ascending, so the
// placed lists are sorted and the file is byte-identical to
// WriteBinary of the same graph. Platforms without mmap fall back to
// an in-RAM adjacency array (correct, not O(n)). The snapshot is
// published through atomicfile, so a reader holding the previous
// file at path (open or mapped) keeps reading its bytes.
//
// The stream is validated as it plays: out-of-range endpoints,
// self-loops, unordered or duplicate pairs, and pass-2 output that
// diverges from pass 1 all abort with an error (path is left as it
// was).
func WriteMIXGStreamed(path string, n uint64, stream EdgeStream) error {
	if n > MaxLoadNodes {
		return fmt.Errorf("graphio: node count %d exceeds load limit %d", n, MaxLoadNodes)
	}
	deg := make([]uint32, n)
	var m int64
	var lastU, lastV graph.NodeID
	first := true
	err := stream(func(u, v graph.NodeID) error {
		if uint64(u) >= n || uint64(v) >= n {
			return fmt.Errorf("graphio: stream edge {%d,%d} out of range for n=%d", u, v, n)
		}
		if u >= v {
			return fmt.Errorf("graphio: stream edge {%d,%d} not ordered u<v", u, v)
		}
		if !first && (u < lastU || (u == lastU && v <= lastV)) {
			return fmt.Errorf("graphio: stream edge {%d,%d} after {%d,%d} breaks lex order", u, v, lastU, lastV)
		}
		first, lastU, lastV = false, u, v
		deg[u]++
		deg[v]++
		m++
		return nil
	})
	if err != nil {
		return err
	}
	l := mixgLayout{n: n, m: uint64(m)}
	if err := l.checkAdjacency(); err != nil {
		return err
	}
	return atomicfile.Write(path, 0o644, func(f *os.File) error {
		return placeMIXG(f, l, deg, stream)
	})
}

// placeMIXG writes the snapshot of WriteMIXGStreamed's pass 2 into f:
// header and offsets from the pass-1 degrees deg (reused as placement
// cursors), then the adjacency scattered from a replay of stream.
func placeMIXG(f *os.File, l mixgLayout, deg []uint32, stream EdgeStream) error {
	n, m, nAdj := l.n, int64(l.m), l.nAdj()
	// Header and offsets stream sequentially.
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := l.writeHeader(bw); err != nil {
		return err
	}
	var b8 [8]byte
	// cursor[v] doubles as the running CSR offset: prefix sums now,
	// per-placement increments in pass 2.
	cursor := deg
	var sum uint64
	for v := uint64(0); v < n; v++ {
		d := uint64(cursor[v])
		cursor[v] = uint32(sum)
		binary.LittleEndian.PutUint64(b8[:], sum)
		if _, err := bw.Write(b8[:]); err != nil {
			return err
		}
		sum += d
	}
	binary.LittleEndian.PutUint64(b8[:], sum)
	if _, err := bw.Write(b8[:]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	total, adjOff := l.size(), l.adjStart()
	if err := f.Truncate(total); err != nil {
		return err
	}

	var adj []graph.NodeID // the scatter target, file-backed when mmap works
	var mapped []byte
	if mmapSupported && hostLittleEndian && nAdj > 0 {
		var err error
		if mapped, err = mmapWrite(f, total); err != nil {
			return fmt.Errorf("graphio: mmap for write: %w", err)
		}
		adj = unsafe.Slice((*graph.NodeID)(unsafe.Pointer(&mapped[adjOff])), nAdj)
	} else if nAdj > 0 {
		adj = make([]graph.NodeID, nAdj)
	}

	// Pass 2: counting-sort placement. Arrivals at any node x are its
	// smaller neighbors in ascending u, then its larger neighbors in
	// ascending v — sorted, because the stream is lex-ordered.
	var replayed int64
	err := stream(func(u, v graph.NodeID) error {
		if replayed++; replayed > m {
			return fmt.Errorf("graphio: stream replay produced more than %d edges", m)
		}
		if uint64(u) >= n || uint64(v) >= n || u >= v {
			return fmt.Errorf("graphio: stream replay emitted invalid edge {%d,%d}", u, v)
		}
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
		return nil
	})
	if err == nil && replayed != m {
		err = fmt.Errorf("graphio: stream replay produced %d edges, first pass %d", replayed, m)
	}
	if mapped != nil {
		if uerr := munmap(mapped); err == nil {
			err = uerr
		}
		return err
	}
	if err != nil || nAdj == 0 {
		return err
	}
	buf := bufio.NewWriterSize(&sectionWriter{f: f, off: adjOff}, 1<<20)
	var b4 [4]byte
	for _, v := range adj {
		binary.LittleEndian.PutUint32(b4[:], uint32(v))
		if _, err := buf.Write(b4[:]); err != nil {
			return err
		}
	}
	return buf.Flush()
}

// sectionWriter adapts WriteAt into a sequential Writer starting at
// off — the non-mmap fallback's adjacency sink.
type sectionWriter struct {
	f   *os.File
	off int64
}

func (s *sectionWriter) Write(p []byte) (int, error) {
	k, err := s.f.WriteAt(p, s.off)
	s.off += int64(k)
	return k, err
}
