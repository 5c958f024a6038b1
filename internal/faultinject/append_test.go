package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAppendFileWritesAtValidPrefix is the one rule both append-only
// logs share: a record lands at the end of the valid prefix, and the
// prefix grows only when the whole append succeeded — the write, and
// for a durable log its sync; a record whose sync failed is cut off
// again. Opening replays the lines and cuts off a last line that is
// torn or that the decoder refuses; the first acknowledged record also
// syncs the directory. Truncate, Sync and ReadAt are fault points like
// Write.
func TestAppendFileWritesAtValidPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	// Three whole records, then a torn one.
	if err := os.WriteFile(path, []byte("aa\nbb\ncc\ntorn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Operation 1 opens and 2 cuts the torn record off; 3 is a write
	// (short), 4-5 a write and its sync (EIO), 6 the cut of the unsynced
	// record, 7-8 a write and sync that succeed and 9-10 the directory's
	// open and sync; 11 opens a reader, 12 is a read (EIO).
	plan := NewPlan(5).At(3, ShortWrite).At(5, EIO).At(12, EIO)
	fsys := NewFS(OS(), plan)
	var decoded []string
	log, err := OpenAppend(fsys, path, func(line []byte) error {
		decoded = append(decoded, string(line))
		return nil
	})
	if err != nil || strings.Join(decoded, "") != "aa\nbb\ncc\n" {
		t.Fatalf("OpenAppend decoded %q, %v", decoded, err)
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
	if raw, _ := os.ReadFile(path); string(raw) != "aa\nbb\ncc\n" {
		t.Fatalf("after a failed sync the file holds %q, want the valid prefix alone", raw)
	}
	off, err := log.Append([]byte("dd\n"))
	if err != nil || off != 9 {
		t.Fatalf("Append = offset %d, %v; want 9, the end of the valid prefix", off, err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "aa\nbb\ncc\ndd\n" {
		t.Fatalf("file holds %q", raw)
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
	if len(plan.Events()) != 3 || plan.Ops() != 13 {
		t.Fatalf("%d faults over %d operations, want 3 over 13: %v", len(plan.Events()), plan.Ops(), plan.Events())
	}
}

// TestOpenAppendRefusesCorruption: a line the decoder refuses is a torn
// append only as the last line. With more lines after it, it is
// corruption: the open fails and leaves the file as it was, every line
// after it included.
func TestOpenAppendRefusesCorruption(t *testing.T) {
	decode := func(line []byte) error {
		if string(line) == "refused\n" {
			return errors.New("not a record")
		}
		return nil
	}
	for _, tc := range []struct{ file, kept string }{
		{"aa\nrefused\nbb\n", ""},
		{"aa\nrefused\nbb", ""},
		{"aa\nbb\nrefused\n", "aa\nbb\n"},
	} {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := OpenAppend(OS(), path, decode)
		raw, _ := os.ReadFile(path)
		if tc.kept == "" {
			if err == nil {
				log.Close()
				t.Errorf("%q opened, want the refused line with lines after it to fail the open", tc.file)
			} else if string(raw) != tc.file {
				t.Errorf("%q: the failed open left %q", tc.file, raw)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v, want the refused last line cut off", tc.file, err)
			continue
		}
		log.Close()
		if string(raw) != tc.kept {
			t.Errorf("%q: the open left %q, want %q", tc.file, raw, tc.kept)
		}
	}
}

// TestAppendFileBrokenByFailedCut: when a record's sync fails and so
// does the cut that would take it off again, the record stays whole on
// disk and the next open replays it, as after a power cut during its
// sync. Append says so with ErrBroken, and every later Append fails
// with ErrBroken without touching the file.
func TestAppendFileBrokenByFailedCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	// 1 opens the log, 2 writes, 3 syncs (EIO) and 4 cuts (EIO).
	plan := NewPlan(1).At(3, EIO).At(4, EIO)
	log, err := OpenAppend(NewFS(OS(), plan), path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.Append([]byte("in doubt\n")); !errors.Is(err, ErrBroken) {
		t.Fatalf("Append whose sync and cut failed: %v, want ErrBroken", err)
	}
	if _, err := log.Append([]byte("refused\n")); !errors.Is(err, ErrBroken) {
		t.Fatalf("Append after the log broke: %v, want ErrBroken", err)
	}
	if plan.Ops() != 4 {
		t.Fatalf("%d operations, want 4: the Append after the break touched the file", plan.Ops())
	}
	var replayed []string
	again, err := OpenAppend(OS(), path, func(line []byte) error {
		replayed = append(replayed, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	again.Close()
	if strings.Join(replayed, "") != "in doubt\n" {
		t.Fatalf("reopen replayed %q, want the record whose cut failed alone", replayed)
	}
}
