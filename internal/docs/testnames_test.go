package docs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedTestRe matches a Go test, fuzz target or benchmark name as the
// docs cite one: "TestOutputGolden", "FuzzReadSpec".
var citedTestRe = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)

// testFuncRe matches a top-level test, fuzz or benchmark declaration.
var testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Z]\w*)\(`)

// retiredBenchmarks are the root go-bench harness's benchmarks, gone
// since bench/mflushperf replaced it; README's PERFORMANCE history
// tables still cite them by name, marked there as retired.
var retiredBenchmarks = map[string]bool{
	"BenchmarkSimulatorThroughput": true,
	"BenchmarkSingleCoreSim":       true,
}

// TestCitedTestsExist fails when a checked doc cites a Test*, Fuzz* or
// Benchmark* name that no _test.go file of the root module declares, so
// renaming or deleting a test the docs point readers at cannot leave a
// stale citation behind. Nested modules (their own go.mod) and testdata
// are not the root module's tests.
func TestCitedTestsExist(t *testing.T) {
	root := repoRoot(t)
	declared := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) < 100 {
		t.Fatalf("only %d test functions found — the walk broke", len(declared))
	}
	for name := range retiredBenchmarks {
		if declared[name] {
			t.Errorf("%s is declared again; drop it from retiredBenchmarks", name)
		}
	}
	for _, doc := range checkedDocs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range citedTestRe.FindAllString(line, -1) {
				if !declared[name] && !retiredBenchmarks[name] {
					t.Errorf("%s:%d: cites %s, which no _test.go file in the module declares", doc, i+1, name)
				}
			}
		}
	}
}
