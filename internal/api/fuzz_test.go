package api

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeRequest drives arbitrary bytes down the service's request
// path, JSON → Request → Validate → Params.Canon → Fingerprint, which
// must never panic. A request that validates must fingerprint the
// same after it is re-encoded and decoded again, or a client that
// round-trips a request through its own types would miss the cache.
// `go test -run=Fuzz` executes the seed corpus (one body per op) on
// every CI run (scripts/check.sh); `go test -fuzz=FuzzDecodeRequest
// ./internal/api` explores further.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range []string{
		`{"op":"slem","graph":"physics-1","params":{"seed":9,"method":"power"}}`,
		`{"op":"bounds","graph":"wiki-vote","params":{"eps_list":[0.25,0.1,1e-3]}}`,
		`{"op":"cdf","graph":"physics-1","params":{"seed":0,"sources":5,"eps":0.25,"max_walk":2000}}`,
		`{"op":"admission","graph":"facebook-A","params":{"scale":0.02,"sources":20,"max_walk":10}}`,
		`{"op":"distmix","graph":"physics-1","params":{"dist_walks":64,"dist_rounds":2000,"dist_shards":4}}`,
		`{"schema_version":1,"op":"experiment","experiment":"T1","params":{"scale":0.001},"timeout_ms":500}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		fp := Fingerprint(req, "graph-hash")
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding a valid request: %v", err)
		}
		var back Request
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("decoding re-encoded %s: %v", again, err)
		}
		if got := Fingerprint(back, "graph-hash"); got != fp {
			t.Fatalf("fingerprint moved under re-encoding:\n%s → %s\n%s → %s", data, fp, again, got)
		}
	})
}
