package faultinject

import (
	"io"
	"os"
	"sync"
)

// AppendFile is the other way a store writes, beside Commit: a log that
// only grows, one record per Append. Its one rule is that a record is
// written at the end of the file's valid prefix — never at the file's
// end, which after a crash or a failed write may lie past bytes that
// are not a record — and that the prefix grows only when the whole
// record (and, for a durable log, its Sync) succeeded. So a torn or
// failed append hides nothing: garbage exists only past the last
// acknowledged record, where the owner's scan stops at the next open,
// which cuts it off, and within a process the next Append overwrites
// it. Safe for concurrent use.
type AppendFile struct {
	f       File
	durable bool

	mu  sync.Mutex
	end int64 // length of the valid prefix
}

// OpenAppend opens the durable log at path, creating it if needed: one
// that syncs every record before Append returns. scan reads it from the
// start and returns the length of the prefix that is whole records;
// appends continue there. Whatever lies past that prefix is cut off
// first: overwritten only as far as the next record reaches, the rest
// of it could start a line the next scan reads as a record. The next
// Append's Sync makes the cut durable with the record.
func OpenAppend(fsys FS, path string, scan func(io.Reader) (int64, error)) (*AppendFile, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := scan(f)
	if err == nil {
		var size int64
		if size, err = f.Seek(0, io.SeekEnd); err == nil && size > end {
			err = f.Truncate(end)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &AppendFile{f: f, durable: true, end: end}, nil
}

// CreateAppend creates an empty log that never syncs — a cache's — in
// dir, under a name no other caller can get: pattern is os.CreateTemp's.
func CreateAppend(fsys FS, dir, pattern string) (*AppendFile, error) {
	f, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &AppendFile{f: f}, nil
}

// Append writes rec as the next record and returns the offset it
// starts at.
//
//comtainer:allow lockio -- mu is the append serializer: records reach the file in offset order, one write each
func (a *AppendFile) Append(rec []byte) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	off := a.end
	if _, err := a.f.WriteAt(rec, off); err != nil {
		return 0, err
	}
	if a.durable {
		if err := a.f.Sync(); err != nil {
			return 0, err
		}
	}
	a.end += int64(len(rec))
	return off, nil
}

// Name returns the path of the file.
func (a *AppendFile) Name() string { return a.f.Name() }

// Close releases the file; appends fail afterwards.
func (a *AppendFile) Close() error { return a.f.Close() }
