package docs

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdNameRe matches a bare markdown file name (no directory part), the
// way Go comments cite the repository's top-level docs: "see API.md".
var mdNameRe = regexp.MustCompile(`(^|[^\w./-])([\w-]+\.md)\b`)

// TestCommentDocReferencesExist fails when a Go comment anywhere in the
// module names a repo-root markdown file that does not exist, so a
// deleted or renamed document cannot leave stale pointers behind.
// Nested modules (their own go.mod) and testdata are skipped.
func TestCommentDocReferencesExist(t *testing.T) {
	root := repoRoot(t)
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, m := range mdNameRe.FindAllStringSubmatch(c.Text, -1) {
					if _, err := os.Stat(filepath.Join(root, m[2])); err != nil {
						t.Errorf("%s:%d: comment names %s, which is not in the repository root",
							rel, fset.Position(c.Pos()).Line, m[2])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
