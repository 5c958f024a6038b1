package fleet

import (
	"encoding/json"
	"testing"

	"comtainer/internal/faultinject"
)

// ReadLog returns the entries of the write log at path, replayed as an
// open replays them.
func ReadLog(t testing.TB, path string) []LogEntry {
	t.Helper()
	var out []LogEntry
	f, err := faultinject.OpenAppend(faultinject.OS(), path, func(line []byte) error {
		var e LogEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	if err != nil {
		t.Fatalf("reading write log: %v", err)
	}
	f.Close()
	return out
}
