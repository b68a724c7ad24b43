package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"sort"

	"damq/internal/netsim"
	"damq/internal/stats"
)

// check is the outcome of one correctness check. A check that cannot run
// for this seed or scale is "skip", never "pass".
type check struct {
	Name   string `json:"name"`
	Status string `json:"status"` // "pass", "fail" or "skip"
	Detail string `json:"detail,omitempty"`
}

// expect records a check that passes when ok holds.
func (r *runner) expect(name string, ok bool, format string, args ...any) {
	c := check{Name: name, Status: "pass"}
	if !ok {
		c.Status = "fail"
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.res.Checks = append(r.res.Checks, c)
}

// expectNoErr records a check that passes when err is nil.
func (r *runner) expectNoErr(name string, err error) {
	r.expect(name, err == nil, "%v", err)
}

func (r *runner) skip(name, why string) {
	r.res.Checks = append(r.res.Checks, check{Name: name, Status: "skip", Detail: why})
}

// tally counts the checks that ran and those that failed.
func tally(cs []check) (attempted, failed int) {
	for _, c := range cs {
		switch c.Status {
		case "pass":
			attempted++
		case "fail":
			attempted++
			failed++
		}
	}
	return attempted, failed
}

// digestFile is testdata/digests.json: the digests of every workload's
// simulated output at the committed seed, keyed "<group>/<scale>/<item>".
type digestFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

//go:embed testdata/digests.json
var digestsJSON []byte

// digestSeed is the seed the committed digests were made with, and the
// default -seed.
const digestSeed = 1988

func loadDigests() (digestFile, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return f, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return f, nil
}

// writeDigests merges computed digests into the file at path.
func writeDigests(path string, add map[string]string) error {
	f := digestFile{Seed: digestSeed, Digests: map[string]string{}}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for k, v := range add {
		f.Digests[k] = v
	}
	raw, err = json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// digest records the digest of one output item and checks it against
// the committed one. group names the digest family (two workloads that
// must produce the same output share one); seedFree marks output that
// does not depend on the seed, which is checked at every seed.
func (r *runner) digest(group, item string, seedFree bool, sum string) {
	key := group + "/" + r.sc.name + "/" + item
	r.res.Digests[key] = sum
	name := "digest " + group + "/" + item
	want, ok := r.digests.Digests[key]
	switch {
	case r.updating:
		r.skip(name, "regenerating the digests")
	case !ok:
		r.skip(name, "no committed digest for scale "+r.sc.name)
	case !seedFree && r.seed != r.digests.Seed:
		r.skip(name, fmt.Sprintf("digests are committed for seed %d", r.digests.Seed))
	default:
		r.expect(name, sum == want, "got %s, committed %s", sum, want)
	}
}

// hasher digests integer counters and exactly representable floats.
type hasher struct{ h hash.Hash }

func newHasher() hasher { return hasher{sha256.New()} }

func (h hasher) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.h.Write(b[:])
	}
}

// exact hashes floats that hold integer values (counts, cycle latencies,
// their minima and maxima), which every platform computes identically.
func (h hasher) exact(vs ...float64) {
	for _, v := range vs {
		h.ints(int64(math.Float64bits(v)))
	}
}

// summary hashes the exact parts of a Summary: count, min and max.
func (h hasher) summary(s *stats.Summary) {
	h.ints(s.N())
	h.exact(s.Min(), s.Max())
}

func (h hasher) sum() string { return hex.EncodeToString(h.h.Sum(nil)) }

func sha(text string) string {
	s := sha256.Sum256([]byte(text))
	return hex.EncodeToString(s[:])
}

// resultDigest hashes a netsim Result's counters, the exact parts of its
// summaries, and its latency histogram buckets.
func resultDigest(res *netsim.Result) string {
	h := newHasher()
	h.ints(res.Config.MeasureCycles, res.Generated, res.Injected, res.Delivered,
		res.DiscardedAtEntry, res.DiscardedInNet, res.FaultedInNet)
	for _, s := range []*stats.Summary{&res.LatencyFromBorn, &res.LatencyFromInjection,
		&res.HotLatency, &res.ColdLatency, &res.Occupancy, &res.SourceBacklog} {
		h.summary(s)
	}
	for i := range res.StageOccupancy {
		h.summary(&res.StageOccupancy[i])
	}
	h.ints(res.LatencyHist.Buckets()...)
	h.ints(res.LatencyHist.Overflow())
	return h.sum()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
