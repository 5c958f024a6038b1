package remoteexec

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// requireNoFarmGoroutines is the census a test takes once it has
// stopped its farm: every worker it ran has returned from Run and every
// server it started is closed, or is about to notice its clients left.
// Within a bounded wait, no goroutine but the tests' own may be left
// running, or started by, this package's code; a survivor fails t with
// its stack.
func requireNoFarmGoroutines(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		var left []string
		for _, g := range strings.Split(goroutineStacks(), "\n\n") {
			if strings.Contains(g, "comtainer/internal/remoteexec.") && !strings.Contains(g, "\ntesting.tRunner(") {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines outlived the farm:\n\n%s", len(left), strings.Join(left, "\n\n"))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// RequireNoFarmGoroutines is the census for the external test package.
var RequireNoFarmGoroutines = requireNoFarmGoroutines

// goroutineStacks returns the stacks of every goroutine.
func goroutineStacks() string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
