// Package docs holds no runtime code: its tests are the repository's
// documentation checks. They verify that every relative markdown link
// (and intra-repo anchor) in the user-facing docs resolves, that every
// markdown file a Go comment names exists, that every Test, Fuzz or
// Benchmark name the docs cite is declared in some _test.go file, and
// that every exported identifier in the service-facing packages
// (internal/server, internal/campaign) carries a doc comment. CI runs
// them via `make docscheck` and with the ordinary test suite.
package docs
