package hijack

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"comtainer/internal/fsim"
)

func TestRecordAndRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Record([]string{"gcc", "-O2", "-c", "main.c"}, "/app/src", "build",
		map[string]string{"CC": "gcc", "HOME": "/root", "CFLAGS": "-O2"})
	r.Record([]string{"ar", "rcs", "lib.a", "main.o"}, "/app/src", "build", nil)
	r.Record([]string{"/usr/bin/g++", "main.o", "-o", "app"}, "/app", "build", nil)

	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	invs := r.Invocations()
	if invs[0].Seq != 0 || invs[2].Seq != 2 {
		t.Error("sequence numbers wrong")
	}
	// Irrelevant env dropped, relevant kept.
	if _, ok := invs[0].Env["HOME"]; ok {
		t.Error("HOME retained")
	}
	if invs[0].Env["CFLAGS"] != "-O2" {
		t.Error("CFLAGS dropped")
	}
	if invs[2].Tool() != "g++" {
		t.Errorf("Tool = %q", invs[2].Tool())
	}

	fsys := fsim.New()
	if err := r.Save(fsys); err != nil {
		t.Fatal(err)
	}
	back, err := Load(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("loaded %d invocations", len(back))
	}
	if !reflect.DeepEqual(back[0].Argv, invs[0].Argv) || back[0].Cwd != "/app/src" {
		t.Errorf("round trip: %+v", back[0])
	}
}

func TestLoadMissingLog(t *testing.T) {
	invs, err := Load(fsim.New())
	if err != nil || invs != nil {
		t.Errorf("Load(empty) = %v, %v", invs, err)
	}
}

func TestLoadCorruptLog(t *testing.T) {
	fsys := fsim.New()
	fsys.WriteFile(LogPath, []byte("{not json\n"), 0o644)
	if _, err := Load(fsys); err == nil {
		t.Error("corrupt log accepted")
	}
}

func TestRecorderCopiesArgv(t *testing.T) {
	r := NewRecorder()
	argv := []string{"gcc", "-c", "a.c"}
	r.Record(argv, "/", "s", nil)
	argv[0] = "mutated"
	if r.Invocations()[0].Argv[0] != "gcc" {
		t.Error("recorder aliased caller's argv")
	}
}

// TestLoadLongLine: what Save writes, Load reads back, however long an
// invocation's line. A link line whose response files were expanded runs
// to megabytes; a line scanner with a 1 MiB buffer refused it.
func TestLoadLongLine(t *testing.T) {
	argv := []string{"g++", "-o", "app"}
	for n := 0; n <= 2<<20; n += len(argv[len(argv)-1]) + 3 {
		argv = append(argv, fmt.Sprintf("obj/unit%06d.o", len(argv)))
	}
	r := NewRecorder()
	r.Record(argv, "/app", "build", nil)
	r.Record([]string{"strip", "app"}, "/app", "build", nil)
	fsys := fsim.New()
	if err := r.Save(fsys); err != nil {
		t.Fatal(err)
	}
	if data, _ := fsys.ReadFile(LogPath); len(data) < 2<<20 {
		t.Fatalf("the log is %d bytes; the test wants a line over 2 MiB", len(data))
	}
	back, err := Load(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r.Invocations()) {
		t.Error("the long invocation did not load back as it was saved")
	}
}

// TestLoadCorruptLineQuotesItsHead: the error names a corrupt line by its
// first 200 bytes, not the whole of it.
func TestLoadCorruptLineQuotesItsHead(t *testing.T) {
	fsys := fsim.New()
	fsys.WriteFile(LogPath, []byte(`{"seq":0,"argv":["`+strings.Repeat("x", 1<<19)+"\n"), 0o644)
	_, err := Load(fsys)
	if err == nil {
		t.Fatal("corrupt log accepted")
	}
	if len(err.Error()) > 500 {
		t.Errorf("the error is %d bytes long", len(err.Error()))
	}
}

// TestLoadAllocatesInProportion: Load decodes each line where it lies,
// so what it allocates is a small multiple of the log's bytes plus the
// invocations it builds — no copy of the log and no per-call line buffer
// (a line scanner took 1 MiB a call).
func TestLoadAllocatesInProportion(t *testing.T) {
	r := NewRecorder()
	const lines = 50
	for i := 0; i < lines; i++ {
		r.Record([]string{"gcc", "-O2", "-c", fmt.Sprintf("src/unit%d.c", i), "-o", fmt.Sprintf("obj/unit%d.o", i)},
			"/app", "build", map[string]string{"CC": "gcc", "CFLAGS": "-O2"})
	}
	fsys := fsim.New()
	if err := r.Save(fsys); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(LogPath)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Load(fsys); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	budget := uint64(4*len(data) + 2048*lines)
	t.Logf("Load of %d lines, %d bytes: allocated %d (budget %d)", lines, len(data), got, budget)
	if got > budget {
		t.Errorf("Load of %d lines, %d bytes allocated %d, budget %d (4x + 2 KiB a line)", lines, len(data), got, budget)
	}
}
