// Package passes assembles the full comtainer-vet analyzer suite.
package passes

import (
	"comtainer/internal/analysis"
	"comtainer/internal/analysis/passes/bodyclose"
	"comtainer/internal/analysis/passes/closeleak"
	"comtainer/internal/analysis/passes/ctxflow"
	"comtainer/internal/analysis/passes/digestcmp"
	"comtainer/internal/analysis/passes/errpropagate"
	"comtainer/internal/analysis/passes/safejoin"
	"comtainer/internal/analysis/passes/timerstop"
)

// All returns every analyzer in the comtainer-vet suite, in the order
// rules are listed. No analyzer reads another's facts, so the order is
// only the listing order.
func All() analysis.Suite {
	return analysis.Suite{
		digestcmp.Analyzer,
		safejoin.Analyzer,
		errpropagate.Analyzer,
		ctxflow.Analyzer,
		bodyclose.Analyzer,
		closeleak.Analyzer,
		timerstop.Analyzer,
	}
}
