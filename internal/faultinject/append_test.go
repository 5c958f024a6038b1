package faultinject

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendFileWritesAtValidPrefix is the one rule both append-only
// logs share: a record lands at the end of the valid prefix, and the
// prefix grows only when the whole append succeeded — the write, and
// for a durable log its sync. Opening cuts off what lies past the valid
// prefix. Truncate, Sync and ReadAt are fault points like Write.
func TestAppendFileWritesAtValidPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	// Three whole records, then a torn one: the owner's scan says so.
	if err := os.WriteFile(path, []byte("aa\nbb\ncc\ntorn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Operation 1 opens and 2 cuts the torn record off; 3 is a write
	// (short), 4-5 a write and its sync (EIO), 6-7 a write and sync that
	// succeed; 8 opens a reader, 9 is a read (EIO).
	plan := NewPlan(5).At(3, ShortWrite).At(5, EIO).At(9, EIO)
	fsys := NewFS(OS(), plan)
	var scanned string
	log, err := OpenAppend(fsys, path, func(r io.Reader) (int64, error) {
		b, err := io.ReadAll(r)
		scanned = string(b)
		return int64(len("aa\nbb\ncc\n")), err
	})
	if err != nil || scanned != "aa\nbb\ncc\ntorn" {
		t.Fatalf("OpenAppend scanned %q, %v", scanned, err)
	}
	defer log.Close()
	if raw, _ := os.ReadFile(path); string(raw) != "aa\nbb\ncc\n" {
		t.Fatalf("after the open the file holds %q, want the valid prefix alone", raw)
	}
	if _, err := log.Append([]byte("a long record the write tears\n")); !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: %v", err)
	}
	if _, err := log.Append([]byte("written whole, never synced\n")); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed sync: %v", err)
	}
	off, err := log.Append([]byte("dd\n"))
	if err != nil || off != 9 {
		t.Fatalf("Append = offset %d, %v; want 9, the end of the valid prefix", off, err)
	}
	if raw, _ := os.ReadFile(path); string(raw[:12]) != "aa\nbb\ncc\ndd\n" {
		t.Fatalf("file starts %q", raw[:12])
	}
	r, err := Open(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 3)
	if _, err := r.ReadAt(buf, off); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReadAt fault: %v", err)
	}
	if _, err := r.ReadAt(buf, off); err != nil || string(buf) != "dd\n" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if len(plan.Events()) != 3 || plan.Ops() != 10 {
		t.Fatalf("%d faults over %d operations, want 3 over 10: %v", len(plan.Events()), plan.Ops(), plan.Events())
	}
}
