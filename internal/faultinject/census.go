package faultinject

import (
	"runtime"
	"strings"
	"time"
)

// Survivors is a goroutine census, taken once a test has stopped what
// it started: it returns the stacks of the goroutines running code
// whose name begins with prefix, or started by such code, that are
// still there when none is left or within has passed, whichever comes
// first. prefix is a package path and its dot
// ("comtainer/internal/daemon."). A goroutine a test runs on (under
// testing.tRunner) is the caller's own and not counted.
func Survivors(prefix string, within time.Duration) []string {
	deadline := time.Now().Add(within)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		var left []string
		for _, g := range strings.Split(allStacks(), "\n\n") {
			if strings.Contains(g, prefix) && !strings.Contains(g, "\ntesting.tRunner(") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		<-tick.C
	}
}

// allStacks returns the stacks of every goroutine.
func allStacks() string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
