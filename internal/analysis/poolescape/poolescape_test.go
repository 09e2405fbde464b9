package poolescape_test

import (
	"testing"

	"hybridolap/internal/analysis/analysistest"
	"hybridolap/internal/analysis/poolescape"
)

// TestFixture runs the analyzer over a single-package module: fixme.go
// holds the Gets with no matching defer next (none, late, wrong local,
// wrong pool), with the defer-insertion fix checked against its golden;
// shapes.go the second Put, the Gets bound to no local, and the three
// production shapes, which are clean.
func TestFixture(t *testing.T) {
	analysistest.RunWithFixes(t, "testdata", poolescape.Analyzer)
}
