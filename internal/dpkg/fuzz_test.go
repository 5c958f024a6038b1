package dpkg

import (
	"reflect"
	"testing"

	"comtainer/internal/fsim"
)

// control is the part of db's packages the status file carries: every
// field but Files, which Load reads from the per-package file lists.
func control(db *DB) map[string]Package {
	out := make(map[string]Package, len(db.packages))
	for name, p := range db.packages {
		c := *p
		c.Files = nil
		out[name] = c
	}
	return out
}

// FuzzParseControl feeds the status file of an image, which Redirect and
// the front-end read out of whatever image was pulled. Loading arbitrary
// bytes never panics, and what loads survives writeStatus: the status
// file written from it loads to the same packages, field for field. The
// seed corpus in testdata/fuzz/FuzzParseControl, among it the status
// file of a Table-2 dist image, runs under plain `go test`.
func FuzzParseControl(f *testing.F) {
	f.Add("Package: libc6\nStatus: install ok installed\nVersion: 2.39-0ubuntu8\n")
	f.Fuzz(func(t *testing.T, text string) {
		in := fsim.New()
		in.WriteFile(StatusPath, []byte(text), 0o644)
		db, err := Load(in)
		if err != nil {
			return
		}
		out := fsim.New()
		if err := db.writeStatus(out); err != nil {
			t.Fatal(err)
		}
		written, err := out.ReadFile(StatusPath)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Load(out)
		if err != nil {
			t.Fatalf("%q loads, but the status file written from it does not: %v\n%s", text, err, written)
		}
		if got, want := control(again), control(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q loads to\n%+v\nbut the status file written from it\n%s\nloads to\n%+v", text, want, written, got)
		}
	})
}

// FuzzCompareVersions holds Compare to the order DESIGN.md §5 needs of
// it: no panic on any version an index or a status file may carry, and
// a total preorder — reflexive, antisymmetric, transitive — so that
// Latest, Resolve and Satisfies agree with one another whatever order
// they meet versions in.
func FuzzCompareVersions(f *testing.F) {
	for _, seed := range [][3]string{
		{"1.0~rc1", "1.0", "1.0a"},
		{"1:0.9", "0.9", "2:0.1"},
		{"1.0-1", "1.0-1.1", "1.0.1-1"},
		{"00:1.0", "0:1.0", "1.0"},
		{"", "~", "0"},
		{"2.36-9", "2.36-9+b1", "12.3.0-1ubuntu1"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, a, b, c string) {
		vs := [3]Version{Version(a), Version(b), Version(c)}
		for _, x := range vs {
			if got := x.Compare(x); got != 0 {
				t.Fatalf("Compare(%q, itself) = %d", x, got)
			}
			for _, y := range vs {
				xy, yx := x.Compare(y), y.Compare(x)
				if xy < -1 || xy > 1 || xy != -yx {
					t.Fatalf("Compare(%q, %q) = %d but Compare(%q, %q) = %d", x, y, xy, y, x, yx)
				}
				for _, z := range vs {
					if xy <= 0 && y.Compare(z) <= 0 && x.Compare(z) > 0 {
						t.Fatalf("%q <= %q <= %q, but Compare(%q, %q) = 1", x, y, z, x, z)
					}
				}
			}
		}
	})
}
