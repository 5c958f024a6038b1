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
