// Package passes assembles the full comtainer-vet analyzer suite.
package passes

import (
	"comtainer/internal/analysis"
	"comtainer/internal/analysis/passes/bodyclose"
	"comtainer/internal/analysis/passes/closeleak"
	"comtainer/internal/analysis/passes/ctxflow"
	"comtainer/internal/analysis/passes/digestcmp"
	"comtainer/internal/analysis/passes/errpropagate"
	"comtainer/internal/analysis/passes/gonaked"
	"comtainer/internal/analysis/passes/guardedby"
	"comtainer/internal/analysis/passes/lockio"
	"comtainer/internal/analysis/passes/lockorder"
	"comtainer/internal/analysis/passes/safejoin"
	"comtainer/internal/analysis/passes/timerstop"
	"comtainer/internal/analysis/passes/wgbalance"
)

// All returns every analyzer in the comtainer-vet suite, in the order
// rules are listed. Order is also a dependency statement: lockio and
// guardedby read held locks through lockorder.LockOps, which applies
// the lock-helper summaries lockorder exports, and guardedby uses its
// call sites and CHA bindings too, so lockorder must run first.
func All() analysis.Suite {
	return analysis.Suite{
		digestcmp.Analyzer,
		lockorder.Analyzer,
		lockio.Analyzer,
		guardedby.Analyzer,
		safejoin.Analyzer,
		errpropagate.Analyzer,
		gonaked.Analyzer,
		ctxflow.Analyzer,
		bodyclose.Analyzer,
		closeleak.Analyzer,
		timerstop.Analyzer,
		wgbalance.Analyzer,
	}
}
