package lockio_test

import (
	"testing"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/analysistest"
	"comtainer/internal/analysis/passes/lockio"
	"comtainer/internal/analysis/passes/lockorder"
)

// lockorder runs first, as in the real suite: lockio resolves lock()/
// unlock() helpers through the summaries it exports.
func TestLockio(t *testing.T) {
	analysistest.RunSuite(t, analysis.Suite{lockorder.Analyzer, lockio.Analyzer}, "testdata/src/a", ".")
}
