//go:build !race

package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mixtime/internal/runner"
)

// pinCfg is smaller than tiny so that all 20 artifacts run in a few
// seconds; under -race the same run takes minutes, hence the build tag.
var pinCfg = Config{Scale: 0.0002, Seed: 1, Sources: 5, MaxWalk: 40, SpectralTol: 1e-6}

// artifactPins holds the sha256 of Render ‖ CSV ‖ JSON for every
// registered artifact at pinCfg. Every artifact is deterministic per
// seed, so any drift is a change in what the experiment computes or
// how it is emitted, and must be deliberate.
var artifactPins = map[string]string{
	"T1": "e20785550f893ece75a2470ac32a67b44a8020f4fb3e5e72320580c75cae485f",
	"F1": "86459a946bc707ed0da5c972108247ca3a706f73c019cd45f743724e85c26658",
	"F2": "ac8ba178e3528e842bdaabde5d87967b690391af93221a9250a6e8db4ce1462d",
	"F3": "d0fa4da8eb127e238e00103917b99c8f7ee6560a41f15c17650647787bd1cc87",
	"F4": "f1b3e899225de3880bd11c79fc9f725ac8b2628cb8a13898c4abb8bf4d73e986",
	"F5": "cabffe2413864ffff142423c8afd82245ca486c7885c55c5748cc653346b3ad6",
	"F6": "e74828d95f9d2e5fd33904b45caab1a7b8a37edeadb7baee35dd9408fea11ab0",
	"F7": "539a24f26ccb683a610d71a37a636969d322ad66a67e9a69512ac9b651e15ebf",
	"F8": "e19bfe8bc3da46c74f162fcfde3cf18cb2646a69a85f89bdda8e326b544f630d",
	"X1": "83940870ca5315967ef4699c92158d22b256c5501f7fd5c4208e6f4513319496",
	"X2": "7967a474755a86bc63d2b2a5c6bd4585e08f50c04563233992413aa4cb44d02a",
	"X3": "c4b2de797517d2239f5323a0ba4d8942cfdb5fe75fef0fc5d45ad47e8ca1d9ba",
	"X4": "3e5e02fb7fa8848582a2bbbb9ee0598e5749a5155f93e0b2238cdc478463497b",
	"X5": "6c6df1982450ef1dbd13b252dab352b451773e32ce1719a446c8d36e60b3c239",
	"X6": "d34b6ebf03391096122e005f4f9e0fd8bec877f7c339bf1e28949a362afbb330",
	"D1": "a5f980b914a9dbd505bd4797e8794c4a0a85835ea3037b66052e02cb41d0680a",
	"D2": "f4ecc52c7fdb92487def5a12aaa62a56ff20b52618e0c6ec86796d5c31d7cf13",
	"X7": "51f938ae49d3b62805ffc9351af2129eb40aab5c1e7e5fc72b70c703367fe32c",
	"E1": "c46d4526df89439efc2673a8263641807c6d2d72e5ba0873b70afae6353c2c6b",
	"E2": "3a6f655c51c7c7a3e74c9608139ef86ab9b72eb8e30f0596219cb7891236cd45",
}

// TestArtifactPins runs every registered experiment and compares its
// emitted bytes with artifactPins, and its JSON envelope's identity
// with the registry's Def.
func TestArtifactPins(t *testing.T) {
	defs := runner.Default().Defs()
	if len(defs) != len(artifactPins) {
		t.Errorf("registry has %d experiments, %d are pinned", len(defs), len(artifactPins))
	}
	for _, def := range defs {
		res, err := def.Run(context.Background(), pinCfg, nil)
		if err != nil {
			t.Errorf("%s: %v", def.ID, err)
			continue
		}
		var csv, js bytes.Buffer
		if err := res.CSV(&csv); err != nil {
			t.Errorf("%s: CSV: %v", def.ID, err)
		}
		if err := res.JSON(&js); err != nil {
			t.Errorf("%s: JSON: %v", def.ID, err)
		}
		var env struct {
			ID, Name, Title string
		}
		if err := json.Unmarshal(js.Bytes(), &env); err != nil {
			t.Errorf("%s: JSON envelope: %v", def.ID, err)
		} else if env.ID != def.ID || env.Name != def.Name || env.Title != def.Title {
			t.Errorf("%s: envelope identity = %q/%q/%q, want %q/%q/%q",
				def.ID, env.ID, env.Name, env.Title, def.ID, def.Name, def.Title)
		}
		h := sha256.New()
		h.Write([]byte(res.Render()))
		h.Write(csv.Bytes())
		h.Write(js.Bytes())
		if got := hex.EncodeToString(h.Sum(nil)); got != artifactPins[def.ID] {
			t.Errorf("%s: artifact sha256 = %q, pinned %q", def.ID, got, artifactPins[def.ID])
		}
	}
}
