// Package examples_test runs the transcripts in this directory. A
// transcript (*.txt) is a session with the shipped binaries, comtainer,
// comtainer-registry and comtainer-bench: each command line, then the
// lines it must print and its exit status. One directive a line:
//
//	# text      a comment
//	$ cmd args  run cmd and wait for it
//	& cmd args  start cmd in the background (one at a time) and read its
//	            output up to the line "... listening on ADDR"; $ADDR is
//	            ADDR from then on
//	stop        send the background command SIGTERM; it must exit 0
//	> text      the next line of output, literally ("$ADDR" and "$WORK",
//	            the transcript's own directory, are replaced first)
//	~ regexp    the next line of output, matching regexp as a whole
//	exit N      the $ command's exit status, when it is not 0
//
// The > and ~ lines after a command are its whole output, stdout and
// stderr as they interleave; after stop, what the background command
// printed past its listening line. Arguments are split on spaces, with
// $ADDR and $WORK replaced; there is no shell. Blank lines are skipped,
// and any other line fails the test.
package examples_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// binaries are the commands a transcript may run.
var binaries = []string{"comtainer", "comtainer-registry", "comtainer-bench"}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every transcript")
	}
	// go test keeps a passing result while the test's binary and the
	// files it opened are unchanged. The binaries are built from the
	// module's sources, so the test opens every one of them.
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") && d.Name() != "go.mod":
			return nil
		}
		f, err := os.Open(path)
		if err == nil {
			f.Close()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	transcripts, _ := filepath.Glob("*.txt") // the pattern is well formed
	if len(transcripts) == 0 {
		t.Fatal("no transcripts (*.txt) to run")
	}
	bin := t.TempDir()
	build := []string{"build", "-o", bin}
	for _, b := range binaries {
		build = append(build, "../cmd/"+b)
	}
	if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, file := range transcripts {
		t.Run(strings.TrimSuffix(file, ".txt"), func(t *testing.T) {
			steps, err := parse(file)
			if err != nil {
				t.Fatal(err)
			}
			s := &session{t: t, bin: bin, work: t.TempDir()}
			t.Cleanup(func() {
				if s.bg != nil {
					s.bg.Process.Kill()
					s.bg.Wait()
				}
			})
			for _, st := range steps {
				s.run(st)
			}
			if s.bg != nil {
				t.Errorf("%s: still running at the end of the transcript; stop it", s.bgPos)
			}
		})
	}
}

// step is one command of a transcript and what it must print.
type step struct {
	pos, verb, args string // file:line; "$", "&" or "stop"; the arguments
	want            []line
	exit            int
}

// line is one line of output a step must print: text, or a match of re.
type line struct {
	pos, text string
	re        *regexp.Regexp
}

func parse(file string) ([]step, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var steps []step
	for i, text := range strings.Split(string(data), "\n") {
		pos := fmt.Sprintf("%s:%d", file, i+1)
		verb, rest, _ := strings.Cut(text, " ")
		switch {
		case text == "" || strings.HasPrefix(text, "#"):
			continue
		case text == "stop" || (verb == "$" || verb == "&") && strings.TrimSpace(rest) != "":
			steps = append(steps, step{pos: pos, verb: verb, args: rest})
			continue
		case len(steps) == 0:
			return nil, fmt.Errorf("%s: %q comes before any command", pos, text)
		}
		st := &steps[len(steps)-1]
		switch verb {
		case ">", "~":
			w := line{pos: pos, text: rest}
			if verb == "~" {
				if w.re, err = regexp.Compile("^(?:" + rest + ")$"); err != nil {
					return nil, fmt.Errorf("%s: %v", pos, err)
				}
			}
			st.want = append(st.want, w)
		case "exit":
			if st.exit, err = strconv.Atoi(rest); err != nil || st.verb != "$" {
				return nil, fmt.Errorf("%s: %q: want exit N after a $ command", pos, text)
			}
		default:
			return nil, fmt.Errorf("%s: unknown directive %q", pos, text)
		}
	}
	return steps, nil
}

// session is one transcript's run: its directory, the registry address
// it last read, and the background command, if one is running.
type session struct {
	t               *testing.T
	bin, work, addr string
	bg              *exec.Cmd
	bgPos           string
	bgOut           *bufio.Reader
}

func (s *session) expand(text string) string {
	return strings.NewReplacer("$WORK", s.work, "$ADDR", s.addr).Replace(text)
}

func (s *session) run(st step) {
	t := s.t
	var out strings.Builder
	var err error
	argv := strings.Fields(s.expand(st.args))
	switch {
	case st.verb == "stop" && s.bg == nil:
		t.Fatalf("%s: stop with nothing in the background", st.pos)
	case st.verb == "stop":
		err = s.bg.Process.Signal(syscall.SIGTERM)
		if err == nil {
			_, err = io.Copy(&out, s.bgOut)
		}
		err = errors.Join(err, s.bg.Wait())
		s.bg = nil
	case !slices.Contains(binaries, argv[0]):
		t.Fatalf("%s: %s is not one of %v", st.pos, argv[0], binaries)
	case st.verb == "$":
		cmd := exec.Command(filepath.Join(s.bin, argv[0]), argv[1:]...)
		cmd.Dir, cmd.Stdout, cmd.Stderr = s.work, &out, &out
		err = cmd.Run()
	case s.bg != nil:
		t.Fatalf("%s: %s is already running in the background", st.pos, s.bgPos)
	default:
		s.bg, s.bgPos = exec.Command(filepath.Join(s.bin, argv[0]), argv[1:]...), st.pos
		s.bg.Dir = s.work
		pipe, err := s.bg.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		s.bg.Stderr = s.bg.Stdout
		if err := s.bg.Start(); err != nil {
			t.Fatal(err)
		}
		s.bgOut = bufio.NewReader(pipe)
		for addr, ok := "", false; !ok; {
			text, err := s.bgOut.ReadString('\n')
			out.WriteString(text)
			if _, addr, ok = strings.Cut(strings.TrimSuffix(text, "\n"), "listening on "); ok {
				s.addr = addr
			} else if err != nil {
				t.Fatalf("%s: exited before listening: %v\n%s", st.pos, err, out.String())
			}
		}
	}
	code, exit := 0, (*exec.ExitError)(nil)
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", st.pos, err)
	}

	got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if out.Len() == 0 {
		got = nil
	}
	for i, w := range st.want {
		switch want := s.expand(w.text); {
		case i >= len(got):
			t.Errorf("%s: output ended before\nwant: %s", w.pos, want)
		case w.re != nil && !w.re.MatchString(got[i]):
			t.Errorf("%s: line does not match\nwant: ~ %s\n got: %s", w.pos, w.text, got[i])
		case w.re == nil && got[i] != want:
			t.Errorf("%s: line differs\nwant: %s\n got: %s", w.pos, want, got[i])
		}
	}
	for _, extra := range got[min(len(st.want), len(got)):] {
		t.Errorf("%s: unexpected output line\n got: %s", st.pos, extra)
	}
	if code != st.exit {
		t.Errorf("%s: exit status %d, want %d", st.pos, code, st.exit)
	}
	if t.Failed() {
		t.Fatalf("%s: %s %s printed:\n%s", st.pos, st.verb, st.args, out.String())
	}
}
