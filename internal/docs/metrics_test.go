package docs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/sim"
)

// registeredMetricNames instantiates every registry the binaries serve —
// the daemon's (server + cluster coordinator, WAL families included)
// and a worker's — and returns the union of their metric names.
// Anything a binary can expose must come through here.
func registeredMetricNames(t *testing.T) []string {
	t.Helper()
	coord, err := cluster.OpenCoordinator(cluster.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	store, err := campaign.OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := server.New(server.Config{
		Store:   store,
		Cluster: coord,
		Runner: func(sim.Options) (*sim.Result, error) {
			return nil, errors.New("docs lint never simulates")
		},
	})
	names := s.Metrics().Names()

	wreg := metrics.NewRegistry()
	(&cluster.Worker{}).RegisterMetrics(wreg)
	return append(names, wreg.Names()...)
}

// TestMetricNamesConform is the `make metricscheck` lint: every metric
// any binary registers is strict snake_case, carries the mflush_
// prefix, and is documented in API.md's Observability tables. A new
// metric that skips the docs — or a doc row for a metric that no
// longer exists — fails here.
func TestMetricNamesConform(t *testing.T) {
	names := registeredMetricNames(t)
	if len(names) < 30 {
		t.Fatalf("only %d registered metrics found — registry wiring broke", len(names))
	}
	apiDoc, err := os.ReadFile(filepath.Join(repoRoot(t), "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	api := string(apiDoc)

	documented := map[string]bool{}
	for _, line := range strings.Split(api, "\n") {
		if !strings.HasPrefix(line, "| `mflush_") {
			continue
		}
		name := strings.TrimPrefix(line, "| `")
		if i := strings.IndexByte(name, '`'); i >= 0 {
			documented[name[:i]] = true
		}
	}

	registered := map[string]bool{}
	for _, name := range names {
		registered[name] = true
		if !metrics.ValidName(name) {
			t.Errorf("metric %q is not strict snake_case", name)
		}
		if !strings.HasPrefix(name, "mflush_") {
			t.Errorf("metric %q lacks the mflush_ prefix", name)
		}
		if !documented[name] {
			t.Errorf("metric %q is registered but missing from API.md's metrics tables", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("API.md documents %q but no binary registers it", name)
		}
	}
}
