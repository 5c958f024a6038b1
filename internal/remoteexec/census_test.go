package remoteexec

import (
	"strings"
	"testing"
	"time"

	"comtainer/internal/faultinject"
	"comtainer/internal/fsim"
)

// requireNoFarmGoroutines is the census a test takes once it has
// stopped its farm: every worker it ran has returned from Run and every
// server it started is closed, or is about to notice its clients left.
// Within a bounded wait, no goroutine but the tests' own may be left
// running, or started by, this package's code; a survivor fails t with
// its stack.
func requireNoFarmGoroutines(t testing.TB) {
	t.Helper()
	if left := faultinject.Survivors("comtainer/internal/remoteexec.", time.Second); len(left) > 0 {
		t.Errorf("%d goroutines outlived the farm:\n\n%s", len(left), strings.Join(left, "\n\n"))
	}
}

// RequireNoFarmGoroutines is the census for the external test package.
var RequireNoFarmGoroutines = requireNoFarmGoroutines

// KeptTrees is, for the external test package, the trees w keeps, by
// the number of layers in their chain.
func KeptTrees(w *Worker) map[int][]*fsim.FS {
	w.treeMu.Lock()
	defer w.treeMu.Unlock()
	out := map[int][]*fsim.FS{}
	for key, tree := range w.trees {
		n := strings.Count(key, " ")
		out[n] = append(out[n], tree)
	}
	return out
}
