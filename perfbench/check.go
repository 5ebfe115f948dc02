package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"mixtime/internal/api"
)

// recordedDigests holds, per workload, the digest of every distinct
// answer a default-seed run produced when this benchmark was written:
// the determinism contract of DESIGN.md §7 applied to the daemon and
// the experiment artifacts. Regenerate with --record-digests.
//
//go:embed digests.json
var recordedDigests []byte

type digestFile struct {
	DefaultSeed uint64                       `json:"default_seed"`
	Workloads   map[string]map[string]string `json:"workloads"`
}

func loadDigests() (digestFile, error) {
	var df digestFile
	if err := json.Unmarshal(recordedDigests, &df); err != nil {
		return df, fmt.Errorf("digests.json: %w", err)
	}
	if df.DefaultSeed != defaultSeed {
		return df, fmt.Errorf("digests.json records seed %d, the benchmark's default is %d", df.DefaultSeed, defaultSeed)
	}
	return df, nil
}

// maxFailureNotes bounds how many failure messages a run keeps.
const maxFailureNotes = 20

// checker checks every answer of a run. An op fails when it errs, when
// its payload breaks an invariant, when a repeat of a fingerprint
// differs from that fingerprint's first answer (envelope fields
// elapsed_ns and cache_hit aside), or, on the default seed, when its
// digest differs from the recorded one.
type checker struct {
	book map[string]string // recorded digests; nil off the default seed

	mu         sync.Mutex
	first      map[string]string // fingerprint → digest of its first answer
	failed     int64
	notes      []string
	matched    int
	unrecorded int
}

func newChecker(workload string, seed uint64) (*checker, error) {
	c := &checker{first: map[string]string{}}
	if seed != defaultSeed {
		return c, nil
	}
	df, err := loadDigests()
	if err != nil {
		return nil, err
	}
	c.book = df.Workloads[workload]
	if c.book == nil {
		c.book = map[string]string{}
	}
	return c, nil
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.notes) < maxFailureNotes {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failures() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// digest hashes an answer without its per-request envelope fields.
func digest(r *api.Response) string {
	cp := *r
	cp.ElapsedNS, cp.CacheHit = 0, false
	raw, err := json.Marshal(&cp)
	if err != nil {
		panic(err) // a decoded Response always re-encodes
	}
	return digestBytes(raw)
}

func digestBytes(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:6])
}

// answer checks one query reply; it reports whether the op succeeded.
func (c *checker) answer(id int64, req api.Request, resp *api.Response, err error) bool {
	if err != nil {
		c.fail("request %d (%s on %s): %v", id, req.Op, req.Graph, err)
		return false
	}
	if resp.Error != "" {
		c.fail("request %d (%s on %s): error field %q", id, req.Op, req.Graph, resp.Error)
		return false
	}
	if err := checkAnswer(req, resp); err != nil {
		c.fail("request %d (%s on %s): %v", id, req.Op, req.Graph, err)
		return false
	}
	return c.known(id, resp.Fingerprint, digest(resp))
}

// known applies the repeat and recorded-digest checks to one keyed
// answer.
func (c *checker) known(id int64, key, d string) bool {
	c.mu.Lock()
	prev, seen := c.first[key]
	if !seen {
		c.first[key] = d
	}
	var recorded string
	var inBook bool
	if c.book != nil && !seen {
		recorded, inBook = c.book[bookKey(key)]
		if inBook && recorded == d {
			c.matched++
		} else if !inBook {
			c.unrecorded++
		}
	}
	c.mu.Unlock()
	switch {
	case seen && prev != d:
		c.fail("request %d: answer for %.16s differs from its first answer", id, key)
		return false
	case inBook && recorded != d:
		c.fail("request %d: answer for %.16s has digest %s, recorded %s", id, key, d, recorded)
		return false
	}
	return true
}

// bookKey shortens a fingerprint (or experiment ID) to its digest-file
// key.
func bookKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func checkSLEM(s api.SLEMResult) error {
	if !(s.Mu >= 0 && s.Mu < 1) {
		return fmt.Errorf("mu %v outside [0, 1)", s.Mu)
	}
	if !s.Converged {
		return errors.New("SLEM solve did not converge")
	}
	return nil
}

// checkAnswer applies the payload invariants of the request's op.
func checkAnswer(req api.Request, r *api.Response) error {
	p := req.Params.WithDefaults()
	if r.Op != req.Op {
		return fmt.Errorf("op %q answered as %q", req.Op, r.Op)
	}
	if r.Fingerprint == "" {
		return errors.New("answer carries no fingerprint")
	}
	switch req.Op {
	case api.OpSLEM:
		if r.SLEM == nil {
			return errors.New("no slem payload")
		}
		return checkSLEM(*r.SLEM)
	case api.OpBounds:
		b := r.Bounds
		if b == nil {
			return errors.New("no bounds payload")
		}
		if err := checkSLEM(b.SLEM); err != nil {
			return err
		}
		if len(b.Rows) != len(p.EpsList) {
			return fmt.Errorf("%d bound rows for %d eps", len(b.Rows), len(p.EpsList))
		}
		for i, row := range b.Rows {
			if row.Eps != p.EpsList[i] || !(row.Lower <= row.Upper) {
				return fmt.Errorf("bound row %d: eps %v lower %v upper %v", i, row.Eps, row.Lower, row.Upper)
			}
		}
	case api.OpCDF:
		cdf := r.CDF
		if cdf == nil {
			return errors.New("no cdf payload")
		}
		if cdf.Sources < 1 || cdf.Sources > p.Sources || cdf.SampledT > p.MaxWalk {
			return fmt.Errorf("cdf sources %d (asked %d), sampled_t %d (max walk %d)",
				cdf.Sources, p.Sources, cdf.SampledT, p.MaxWalk)
		}
		prevT, prevF := -1, 0.0
		for i, pt := range cdf.Points {
			if pt.T < prevT || pt.Frac < prevF || !(pt.Frac > 0 && pt.Frac <= 1) {
				return fmt.Errorf("cdf point %d (t %d, frac %v) breaks monotonicity or (0, 1]", i, pt.T, pt.Frac)
			}
			prevT, prevF = pt.T, pt.Frac
		}
	case api.OpAdmission:
		a := r.Admission
		if a == nil {
			return errors.New("no admission payload")
		}
		if a.Suspects < 1 || a.Suspects > p.Sources || a.Accepted < 0 || a.NoIntersection < 0 || a.BalanceRejected < 0 ||
			a.Accepted+a.NoIntersection+a.BalanceRejected > a.Suspects {
			return fmt.Errorf("admission counts %d accepted + %d + %d rejected of %d suspects (asked %d)",
				a.Accepted, a.NoIntersection, a.BalanceRejected, a.Suspects, p.Sources)
		}
	case api.OpDistMix:
		d := r.DistMix
		if d == nil {
			return errors.New("no distmix payload")
		}
		if d.Sources < 1 || d.Sources > p.Sources || d.Tau < 0 || d.Tau > p.DistRounds ||
			d.LocalTau < 0 || d.LocalTau > p.DistRounds || d.Walks != d.WalksPerNode*d.Nodes {
			return fmt.Errorf("distmix counts: %d sources (asked %d), tau %d, local tau %d (max rounds %d), %d walks",
				d.Sources, p.Sources, d.Tau, d.LocalTau, p.DistRounds, d.Walks)
		}
	default:
		return fmt.Errorf("unchecked op %q", req.Op)
	}
	return nil
}

// recordDigests replaces the workload's section of the digest file at
// path with this run's first answers: the one way digests.json is
// written.
func recordDigests(path, workload string, c *checker) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var df digestFile
	if err := json.Unmarshal(raw, &df); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	df.DefaultSeed = defaultSeed
	if df.Workloads == nil {
		df.Workloads = map[string]map[string]string{}
	}
	book := map[string]string{}
	df.Workloads[workload] = book
	c.mu.Lock()
	for k, d := range c.first {
		book[bookKey(k)] = d
	}
	c.mu.Unlock()
	out, err := json.MarshalIndent(&df, "", "")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// summary describes the checks for the report.
func (c *checker) summary() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	lines := []string{fmt.Sprintf("distinct answers %d, failed ops %d", len(c.first), c.failed)}
	if c.book != nil {
		lines = append(lines, fmt.Sprintf("recorded digests: %d matched, %d not recorded (of %d on file)",
			c.matched, c.unrecorded, len(c.book)))
	}
	notes := append([]string(nil), c.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		lines = append(lines, "FAIL "+n)
	}
	return lines
}
