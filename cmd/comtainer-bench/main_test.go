package main

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"comtainer/internal/experiments"
)

// TestSelectionPrintsWhatItNames: -table N and -figure N print that one
// table or figure; the flag left unset selects nothing.
func TestSelectionPrintsWhatItNames(t *testing.T) {
	env := experiments.NewEnvironment()
	heading := regexp.MustCompile(`(?m)^(Table|Figure) \d+`)
	for _, c := range []struct {
		table, figure int
		want          string
	}{
		{1, 0, "Table 1"},
		{0, 3, "Figure 3"},
		{0, 11, "Figure 11"},
	} {
		var b strings.Builder
		if _, err := render(&b, env, false, c.table, c.figure); err != nil {
			t.Fatal(err)
		}
		if got := heading.FindAllString(b.String(), -1); !slices.Equal(got, []string{c.want}) {
			t.Errorf("-table %d -figure %d printed %q, want only %s", c.table, c.figure, got, c.want)
		}
	}
}
