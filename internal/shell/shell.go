// Package shell implements the minimal POSIX-ish command-line parsing the
// Containerfile build engine needs to execute RUN instructions: word
// splitting with single/double quotes and backslash escapes, $VAR/${VAR}
// expansion, comments, and command lists joined by && and ;.
//
// It is deliberately not a full shell — build scripts in the evaluation
// workloads use only this subset, mirroring how real Dockerfiles drive
// compilers with straightforward command sequences.
package shell

import (
	"fmt"
	"strings"
)

// Command is a single simple command: an argv vector.
type Command struct {
	Argv []string
}

// String re-renders the command as a line Parse reads back to the same
// argv: a word that is empty or holds any byte but [A-Za-z0-9_@%+=:,./-]
// is single-quoted.
func (c Command) String() string {
	parts := make([]string, len(c.Argv))
	for i, w := range c.Argv {
		if bare(w) {
			parts[i] = w
		} else {
			parts[i] = "'" + strings.ReplaceAll(w, "'", `'\''`) + "'"
		}
	}
	return strings.Join(parts, " ")
}

// bare reports whether w may stand unquoted: it is not empty and every
// byte is one Parse reads as itself anywhere in a word.
func bare(w string) bool {
	for i := 0; i < len(w); i++ {
		if c := w[i]; !isVarChar(c) && strings.IndexByte("@%+=:,./-", c) < 0 {
			return false
		}
	}
	return w != ""
}

// Env supplies variable values for expansion.
type Env interface {
	Lookup(name string) (string, bool)
}

// MapEnv is a map-backed Env.
type MapEnv map[string]string

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (string, bool) {
	v, ok := m[name]
	return v, ok
}

// Parse splits line into a list of simple commands separated by && or ;,
// expanding variables from env. Comments introduced by an unquoted # at a
// word boundary run to end of line.
func Parse(line string, env Env) ([]Command, error) {
	words, seps, err := tokenize(line, env)
	if err != nil {
		return nil, err
	}
	var out []Command
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			out = append(out, Command{Argv: cur})
			cur = nil
		}
	}
	for i, w := range words {
		if seps[i] {
			flush()
			continue
		}
		cur = append(cur, w)
	}
	flush()
	return out, nil
}

// isVarChar reports whether c can appear in a variable name.
func isVarChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// expandInto appends the expansion of a $-form starting at s[i] (where
// s[i] == '$') to b and returns the index after the consumed form.
func expandInto(b *strings.Builder, s string, i int, env Env) (int, error) {
	i++ // skip '$'
	if i >= len(s) {
		b.WriteByte('$')
		return i, nil
	}
	if s[i] == '{' {
		end := strings.IndexByte(s[i:], '}')
		if end < 0 {
			return 0, fmt.Errorf("shell: unterminated ${ in %q", s)
		}
		name := s[i+1 : i+end]
		if name == "" {
			return 0, fmt.Errorf("shell: empty ${} in %q", s)
		}
		if v, ok := env.Lookup(name); ok {
			b.WriteString(v)
		}
		return i + end + 1, nil
	}
	start := i
	for i < len(s) && isVarChar(s[i]) {
		i++
	}
	if start == i {
		// Lone '$' with no name.
		b.WriteByte('$')
		return i, nil
	}
	if v, ok := env.Lookup(s[start:i]); ok {
		b.WriteString(v)
	}
	return i, nil
}

// tokenize splits line into words; seps[i] is true when words[i] is a
// command separator (&& or ;) rather than an argument.
func tokenize(line string, env Env) (words []string, seps []bool, err error) {
	if env == nil {
		env = MapEnv(nil)
	}
	var b strings.Builder
	inWord := false
	emit := func(sep bool) {
		if sep {
			words = append(words, "&&")
			seps = append(seps, true)
			return
		}
		if inWord {
			words = append(words, b.String())
			seps = append(seps, false)
			b.Reset()
			inWord = false
		}
	}
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			emit(false)
			i++
		case c == '#' && !inWord:
			// Comment to end of line.
			i = len(line)
		case c == ';':
			emit(false)
			emit(true)
			i++
		case c == '&' && i+1 < len(line) && line[i+1] == '&':
			emit(false)
			emit(true)
			i += 2
		case c == '&':
			return nil, nil, fmt.Errorf("shell: background execution (&) not supported in %q", line)
		case c == '|' || c == '<' || c == '>':
			return nil, nil, fmt.Errorf("shell: redirection/pipes (%c) not supported in %q", c, line)
		case c == '\'':
			// Single quotes: literal until closing quote.
			end := strings.IndexByte(line[i+1:], '\'')
			if end < 0 {
				return nil, nil, fmt.Errorf("shell: unterminated single quote in %q", line)
			}
			b.WriteString(line[i+1 : i+1+end])
			inWord = true
			i += end + 2
		case c == '"':
			// Double quotes: expansion allowed, no word splitting.
			i++
			for i < len(line) && line[i] != '"' {
				switch line[i] {
				case '\\':
					if i+1 < len(line) {
						b.WriteByte(line[i+1])
						i += 2
					} else {
						i++
					}
				case '$':
					i, err = expandInto(&b, line, i, env)
					if err != nil {
						return nil, nil, err
					}
				default:
					b.WriteByte(line[i])
					i++
				}
			}
			if i >= len(line) {
				return nil, nil, fmt.Errorf("shell: unterminated double quote in %q", line)
			}
			inWord = true
			i++
		case c == '\\':
			if i+1 < len(line) {
				b.WriteByte(line[i+1])
				inWord = true
				i += 2
			} else {
				i++
			}
		case c == '$':
			// Unquoted expansion: the result undergoes word splitting, and
			// an empty expansion produces no word.
			var tmp strings.Builder
			i, err = expandInto(&tmp, line, i, env)
			if err != nil {
				return nil, nil, err
			}
			s := tmp.String()
			if !strings.ContainsAny(s, " \t\n") {
				b.WriteString(s)
				if s != "" {
					inWord = true
				}
				continue
			}
			fields := strings.Fields(s)
			leadingWS := s[0] == ' ' || s[0] == '\t' || s[0] == '\n'
			trailingWS := s[len(s)-1] == ' ' || s[len(s)-1] == '\t' || s[len(s)-1] == '\n'
			if leadingWS {
				emit(false)
			}
			for fi, f := range fields {
				b.WriteString(f)
				inWord = true
				if fi < len(fields)-1 || trailingWS {
					emit(false)
				}
			}
		default:
			b.WriteByte(c)
			inWord = true
			i++
		}
	}
	emit(false)
	return words, seps, nil
}
