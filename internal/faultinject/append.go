package faultinject

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrBroken: a record whose Sync failed could not be cut off again, so
// the next open may replay it, and the log takes no record after it.
var ErrBroken = errors.New("faultinject: log broken: a record whose sync failed could not be cut off")

// AppendFile is a log that only grows, one record per Append, written
// at the end of the file's valid prefix — not at the file's end, which
// may lie past a failed write — and the prefix grows only when the
// whole record (and, when durable, its Sync) succeeded. So garbage lies
// only past the last acknowledged record, where the next Append
// overwrites it and the next open cuts it off. Safe for concurrent use.
type AppendFile struct {
	f    File
	fsys FS // a durable log's; nil for one that never syncs

	mu     sync.Mutex
	end    int64  // length of the valid prefix
	dir    string // a durable log's directory, until an Append syncs it
	broken bool   // a failed record could not be cut off: see ErrBroken
}

// OpenAppend opens the durable log at path, creating it if needed:
// Append syncs every record before it returns, and the first one the
// directory too, so a log created here is found after a crash once it
// holds an acknowledged record. Records are lines, handed to decode in order, newline included. A
// last line cut short or refused is a crash's torn append and is cut
// off. A refused line with more after it is corruption, as one append
// at a time is in flight: it fails the open, as a line over 1 MiB does.
func OpenAppend(fsys FS, path string, decode func(line []byte) error) (*AppendFile, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	size, end, err := replay(f, decode)
	if err == nil && size > end {
		err = f.Truncate(end)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &AppendFile{f: f, fsys: fsys, end: end, dir: filepath.Dir(path)}, nil
}

// ReadLog hands decode the records of the log at path as OpenAppend
// does, but reads only: a torn last line — a crash's, or an append
// another process has in flight — is skipped, not cut off.
func ReadLog(fsys FS, path string, decode func(line []byte) error) error {
	f, err := Open(fsys, path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, _, err = replay(f, decode)
	return err
}

// replay hands decode the whole lines f starts with, through a buffer
// the size of f up to 1 MiB, and returns f's size and the length of the
// prefix the lines occupy. A longer line fails it, with
// bufio.ErrBufferFull.
func replay(f File, decode func(line []byte) error) (size, valid int64, _ error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return 0, 0, err
	}
	br := bufio.NewReaderSize(f, int(min(size+1, 1<<20)))
	for {
		line, err := br.ReadSlice('\n')
		if err == io.EOF {
			return size, valid, nil
		}
		if err != nil {
			return 0, 0, fmt.Errorf("replaying: %w", err)
		}
		if derr := decode(line); derr != nil {
			if _, err := br.Peek(1); err == io.EOF {
				return size, valid, nil
			}
			return 0, 0, fmt.Errorf("replaying: the line at offset %d is not a record and more follow it: %w", valid, derr)
		}
		valid += int64(len(line))
	}
}

// SyncDir syncs directory dir, so the names made in it survive a crash.
func SyncDir(fsys FS, dir string) error {
	d, err := Open(fsys, dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return err
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

// Append writes rec as the next record and returns its offset. A
// durable record whose Sync (or its directory's) fails is cut off
// again, or the next open would replay it. If the cut fails too, the
// record is in doubt, as if the power went during its Sync: this Append
// and every later one fail with ErrBroken, the later ones writing nothing.
// mu is held across the write: it is the append serializer, so records
// reach the file in offset order, one write each.
func (a *AppendFile) Append(rec []byte) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.broken {
		return 0, ErrBroken
	}
	f, off := a.f, a.end
	if _, err := f.WriteAt(rec, off); err != nil {
		return 0, err
	}
	if a.fsys != nil {
		err := f.Sync()
		if err == nil && a.dir != "" {
			err = SyncDir(a.fsys, a.dir)
		}
		if err != nil {
			if terr := f.Truncate(off); terr != nil {
				a.broken = true
				return 0, fmt.Errorf("%w: sync: %v; cut: %v", ErrBroken, err, terr)
			}
			return 0, err
		}
		a.dir = ""
	}
	a.end += int64(len(rec))
	return off, nil
}

// Name returns the path of the file.
func (a *AppendFile) Name() string { return a.f.Name() }

// Close releases the file; appends fail afterwards.
func (a *AppendFile) Close() error { return a.f.Close() }
