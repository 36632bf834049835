// The trace: workload axis. A spec's workloads list may name scenario
// trace files ("trace:PATH") alongside paper workloads; each resolves
// at expansion time to a TraceRef carrying the file's content digest,
// which is what job keys hash — so two different traces never share a
// key, renaming a file never invalidates cached results, and a file
// that changes after expansion is detected at load time instead of
// silently simulating the wrong scenario. Workers load the trace from
// the same path, so fleet execution assumes a shared filesystem (the
// deployment CAMPAIGNS.md documents).
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/isa"
	"repro/internal/trace"
)

// TracePrefix marks a workloads-axis entry as a scenario trace file.
const TracePrefix = "trace:"

// TraceRef identifies a scenario-trace workload by content: only the
// digest is key material (keyhash-enforced via keyMaterial); name and
// path are labels and locators that may differ across machines without
// changing the job.
//
//mflush:keyed keyMaterial
type TraceRef struct {
	// Name is the axis entry as the spec wrote it ("trace:PATH"); it
	// labels records and aggregation cells but never participates in
	// keys (content does).
	//mflush:keyed-ignore
	Name string `json:"name"`
	// Path locates the trace file. Fleet workers resolve the same path
	// on their own filesystem.
	//mflush:keyed-ignore
	Path string `json:"path"`
	// Digest is the hex SHA-256 of the file's raw bytes. Job keys hash
	// the digest, not the path.
	Digest string `json:"digest"`
}

// keyMaterial is the trace axis's contribution to job keys: the
// content digest under the trace: prefix. Job.workloadID splices it
// into Key material.
func (ref *TraceRef) keyMaterial() string {
	return TracePrefix + ref.Digest
}

// ResolveTrace resolves one "trace:PATH" axis entry by digesting the
// file it names.
func ResolveTrace(entry string) (*TraceRef, error) {
	path := strings.TrimPrefix(entry, TracePrefix)
	if path == "" || path == entry {
		return nil, fmt.Errorf("campaign: bad trace axis entry %q (want %sPATH)", entry, TracePrefix)
	}
	digest, err := trace.SumFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: resolving %q: %w", entry, err)
	}
	return &TraceRef{Name: entry, Path: path, Digest: digest}, nil
}

func (ref *TraceRef) validate() error {
	if ref.Path == "" {
		return fmt.Errorf("campaign: trace ref has no path")
	}
	if len(ref.Digest) != sha256.Size*2 {
		return fmt.Errorf("campaign: trace ref %q has malformed digest %q", ref.Path, ref.Digest)
	}
	return nil
}

// scenarioCache memoises loaded, digest-verified thread traces so a
// campaign's many jobs over one trace parse the file once per process.
// Safe to share by digest: the slices are never mutated after load
// (sim replay reads them through SliceSource copies).
var scenarioCache sync.Map // digest -> [][]isa.Inst

// load reads, digest-verifies and parses the referenced trace file.
// Verification and parse happen on one in-memory read of the file, so
// the digest always covers exactly the bytes that were parsed.
func (ref *TraceRef) load() ([][]isa.Inst, error) {
	if v, ok := scenarioCache.Load(ref.Digest); ok {
		return v.([][]isa.Inst), nil
	}
	raw, err := os.ReadFile(ref.Path)
	if err != nil {
		return nil, fmt.Errorf("campaign: loading trace: %w", err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != ref.Digest {
		return nil, fmt.Errorf("campaign: trace %s content %.16s… does not match job digest %.16s…; the file changed since the spec was expanded",
			ref.Path, got, ref.Digest)
	}
	scen, err := trace.ReadScenario(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("campaign: parsing trace %s: %w", ref.Path, err)
	}
	threads, err := scen.ThreadTraces()
	if err != nil {
		return nil, fmt.Errorf("campaign: trace %s: %w", ref.Path, err)
	}
	actual, _ := scenarioCache.LoadOrStore(ref.Digest, threads)
	return actual.([][]isa.Inst), nil
}
