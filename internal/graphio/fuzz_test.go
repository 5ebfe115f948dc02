package graphio

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"mixtime/internal/gen"
)

// The fuzz targets assert the hardening contract: no input — however
// corrupt — makes a reader panic or allocate past MaxLoadNodes; they
// either return a graph or a wrapped error. `go test -run=Fuzz`
// executes the seed corpus below on every CI run (wired into
// scripts/check.sh); `go test -fuzz=FuzzReadMIXG ./internal/graphio`
// explores further.

// fuzzCap lowers the load limit so a fuzzer-invented header cannot
// make the harness itself run out of memory.
func fuzzCap(f *testing.F) {
	old := MaxLoadNodes
	MaxLoadNodes = 1 << 16
	f.Cleanup(func() { MaxLoadNodes = old })
}

func FuzzReadEdgeList(f *testing.F) {
	fuzzCap(f)
	f.Add([]byte("# nodes: 5\n0\t1\n1 2\n2\t0\n"))
	f.Add([]byte("% comment\n\n3 4\n4 3\n"))
	f.Add([]byte("0 1\n1\n"))
	f.Add([]byte("# nodes: 999999999999\n"))
	f.Add([]byte("a b\n"))
	f.Add([]byte("4294967295 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err == nil && g == nil {
			t.Fatal("nil graph without error")
		}
	})
}

func FuzzReadMIXG(f *testing.F) {
	fuzzCap(f)
	// A valid snapshot seeds the structured corpus, and a copy stamped
	// with the retired version 1 must be refused.
	var v2 bytes.Buffer
	if err := WriteBinary(&v2, gen.Ring(8)); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	v1 := append([]byte(nil), v2.Bytes()...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	f.Add(v1)
	// Truncated header, bad magic, absurd counts.
	f.Add([]byte("MIXG"))
	f.Add([]byte("XXXX00000000000000000000"))
	huge := make([]byte, binHeaderLen)
	copy(huge, binMagic)
	binary.LittleEndian.PutUint32(huge[4:], 2)
	binary.LittleEndian.PutUint64(huge[8:], 1<<60)
	binary.LittleEndian.PutUint64(huge[16:], 1<<60)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Exercise both the size-known path (as LoadFile uses for
		// uncompressed files) and the unknown-size stream path.
		for _, size := range []int64{int64(len(data)), -1} {
			g, err := readBinary(bytes.NewReader(data), size)
			if err == nil && g == nil {
				t.Fatal("nil graph without error")
			}
			if err == nil {
				if verr := g.Validate(); verr != nil {
					t.Fatalf("reader accepted an invalid graph: %v", verr)
				}
			}
		}
		// The mmap loader must uphold the same contract on the same
		// bytes (it may additionally fall through to the edge-list
		// parser for non-binary input, which is fine — valid or error).
		path := filepath.Join(t.TempDir(), "fuzz.mixg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mg, err := OpenMIXGMapped(path)
		if err == nil {
			if mg == nil || mg.Graph == nil {
				t.Fatal("mapped loader returned nil graph without error")
			}
			if verr := mg.Validate(); verr != nil {
				t.Fatalf("mapped loader accepted an invalid graph: %v", verr)
			}
			if err := mg.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	})
}
