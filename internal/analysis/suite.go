package analysis

import (
	"fmt"
	"strconv"
	"strings"
)

// The suite is assembled in cmd/comtainer-vet (and tests) from the
// passes subpackages; this file only defines the shared registry type
// so callers don't depend on each pass individually.

// Suite is an ordered list of analyzers run together.
type Suite []*Analyzer

// Names returns the analyzer names in order.
func (s Suite) Names() []string {
	out := make([]string, len(s))
	for i, a := range s {
		out[i] = a.Name
	}
	return out
}

// ByName returns the named analyzers in suite order, or all when names
// is empty. A name the suite does not have is an error that lists it.
func (s Suite) ByName(names ...string) (Suite, error) {
	if len(names) == 0 {
		return s, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out Suite
	for _, a := range s {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		unknown := SortedKeys(want)
		for i, n := range unknown {
			unknown[i] = strconv.Quote(n)
		}
		return nil, fmt.Errorf("no analyzer named %s (have %s)",
			strings.Join(unknown, ", "), strings.Join(s.Names(), ", "))
	}
	return out, nil
}
