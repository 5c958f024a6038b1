// Package lockio enforces the shard-lock discipline used throughout
// the distrib and actioncache stores: a sync.Mutex/RWMutex critical
// section must not perform file or network I/O. Disk latency under a
// shard lock convoys every other goroutine touching the shard — the
// exact regression the DiskCache Get/Put split (stat, read, and write
// outside the lock; index bookkeeping inside) exists to prevent.
//
// The check is path-sensitive, per function scope: the scope's CFG is
// run through the must-hold lockset dataflow (cfg.ComputeLockSets with
// lockorder.LockOps, the classifier guardedby and lockorder use too),
// and a call into package os, io, net, or net/http at a node where any
// lock is definitely held is flagged. So an unlock in an early-return
// branch does not end the section on the path that falls through, a
// `defer mu.Unlock()` keeps it open to the return, and a lock()/
// unlock() helper opens or closes it through its lockorder summary.
// Must-hold also means a lock taken on one branch only is not held
// after the merge: the pass never blames I/O for a lock some path did
// not take. Nested function literals are independent scopes.
// Deliberate holds (e.g. serializing commit-time renames against
// deletes) carry a //comtainer:allow lockio comment.
package lockio

import (
	"go/ast"
	"go/types"
	"strings"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/cfg"
	"comtainer/internal/analysis/passes/lockorder"
)

// ioPkgs are packages whose calls count as I/O.
var ioPkgs = map[string]bool{
	"os":       true,
	"io":       true,
	"net":      true,
	"net/http": true,
}

// pureFuncs are calls into ioPkgs that do no I/O and are always fine
// to make under a lock.
var pureFuncs = map[string]bool{
	"os.IsNotExist":   true,
	"os.IsExist":      true,
	"os.IsPermission": true,
	"os.IsTimeout":    true,
	"os.Getenv":       true,
}

// Analyzer flags I/O performed while a sync mutex is held.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: "no os/io/net call while a sync.Mutex or sync.RWMutex is held; " +
		"do disk and network work outside the critical section",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// A local mutex is as good a convoy as a shared one, so mutexes
	// LockClass cannot name keep their receiver text as the class.
	ops := lockorder.LockOps(pass, types.ExprString)
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(body *ast.BlockStmt, decl *ast.FuncDecl) {
			checkBody(pass, ops, body)
		})
	}
	return nil
}

func checkBody(pass *analysis.Pass, ops func(ast.Node) []cfg.LockOp, body *ast.BlockStmt) {
	// written maps a lock class to the receiver expression this body
	// first locks it through, so the message says "s.mu", not the
	// class; a class a helper acquired is shown without its directory.
	written := make(map[string]string)
	analysis.InspectShallow(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if recv, _, ok := analysis.SyncLockCall(pass.TypesInfo, call); ok {
				class, text := analysis.LockClass(pass.TypesInfo, recv), types.ExprString(recv)
				if class == "" {
					class = text
				}
				if written[class] == "" {
					written[class] = text
				}
			}
		}
		return true
	})
	cfg.ComputeLockSets(cfg.New("", body), ops).Walk(func(n ast.Node, held []string) {
		if len(held) == 0 {
			return
		}
		lock := written[held[0]]
		if lock == "" {
			lock = held[0][strings.LastIndexByte(held[0], '/')+1:]
		}
		analysis.InspectShallow(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if desc, ok := ioCall(pass.TypesInfo, call); ok {
					pass.Reportf(call.Pos(), "%s called while %s is held; move I/O outside the critical section", desc, lock)
				}
			}
			return true
		})
	})
}

// ioCall reports whether call enters one of the I/O packages and
// returns a printable description.
func ioCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || !ioPkgs[fn.Pkg().Path()] {
		return "", false
	}
	desc := fn.Pkg().Name() + "." + fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if _, name := analysis.NamedTypePath(recv.Type()); name != "" {
			desc = fn.Pkg().Name() + "." + name + "." + fn.Name()
		}
	}
	if pureFuncs[desc] || pureFuncs[fn.Pkg().Name()+"."+fn.Name()] {
		return "", false
	}
	return desc, true
}
