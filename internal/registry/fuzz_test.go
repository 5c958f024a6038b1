package registry_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/registry"
)

// FuzzFrontend: the /v2 path grammar, Content-Range and Range reach
// every registry and proxy from the network. A sequence of requests,
// each answered by NewFrontend over an in-memory Server, never panics
// and never gets a 5xx; a 200 blob GET returns bytes that hash to the
// digest in its path; and a 206 body is as long as the span its
// Content-Range names.
//
// An input is lines, one request each: a method letter (G GET, H HEAD,
// P PUT, O POST, A PATCH, D DELETE), a resource letter (m
// /v2/<name>/manifests/<ref>, b /v2/<name>/blobs/<ref>, u
// /v2/<name>/blobs/uploads/<ref>, t /v2/<name>/tags/list, any other:
// /v2/<name>), then, after an optional space, up to five fields split
// by '|': name, ref (a '?' starts its query), Range, Content-Range and
// body; an empty header
// field sends no header. In the ref, '@' stands for the digest of the
// body, '#' for that of the bytes the last upload session took plus the
// body, and '$' for that session's ID. At most 16 requests run.
func FuzzFrontend(f *testing.F) {
	methods := map[byte]string{
		'G': http.MethodGet, 'H': http.MethodHead, 'P': http.MethodPut,
		'O': http.MethodPost, 'A': http.MethodPatch, 'D': http.MethodDelete,
	}
	resources := map[byte]string{'m': "/manifests/", 'b': "/blobs/", 'u': "/blobs/uploads/", 't': "/tags/list"}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := registry.NewServer()
		h := registry.NewFrontend(srv, srv.Uploads())
		var session string // ID of the last session started
		var spooled []byte // what it took since
		lines := bytes.Split(data, []byte("\n"))
		for _, line := range lines[:min(len(lines), 16)] {
			if len(line) < 2 {
				continue
			}
			method, ok := methods[line[0]]
			if !ok {
				continue
			}
			fields := strings.SplitN(strings.TrimPrefix(string(line[2:]), " "), "|", 5)
			fields = append(fields, make([]string, 5-len(fields))...)
			name, ref, rng, crng, body := fields[0], fields[1], fields[2], fields[3], []byte(fields[4])
			usesSession := strings.Contains(ref, "$")
			ref = strings.NewReplacer(
				"@", string(digest.FromBytes(body)),
				"#", string(digest.FromBytes(append(bytes.Clone(spooled), body...))),
				"$", session,
			).Replace(ref)
			ref, query, _ := strings.Cut(ref, "?")
			path := "/v2/" + name
			if res, ok := resources[line[1]]; ok {
				path += res
				if line[1] != 't' {
					path += ref
				}
			}
			req := httptest.NewRequest(method, "/", bytes.NewReader(body))
			req.URL = &url.URL{Path: path, RawQuery: query}
			if rng != "" {
				req.Header.Set("Range", rng)
			}
			if crng != "" {
				req.Header.Set("Content-Range", crng)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)

			what := method + " " + req.URL.String()
			if rec.Code >= 500 {
				t.Fatalf("%s: %d %q from a memory server", what, rec.Code, rec.Body)
			}
			if loc := rec.Header().Get("Location"); rec.Code == http.StatusAccepted && method == http.MethodPost {
				session, spooled = loc[strings.LastIndex(loc, "/")+1:], nil
			}
			if rec.Code == http.StatusAccepted && method == http.MethodPatch && usesSession {
				spooled = append(spooled, body...)
			}
			if method != http.MethodGet {
				continue
			}
			switch rec.Code {
			case http.StatusOK:
				// The front-end's own resolution: a "/manifests/" anywhere
				// makes the path a manifest's.
				rest := strings.TrimPrefix(path, "/v2/")
				if i := strings.LastIndex(rest, "/blobs/"); i > 0 && !strings.Contains(rest, "/manifests/") {
					if d, err := digest.Parse(rest[i+len("/blobs/"):]); err == nil && !d.Verify(rec.Body.Bytes()) {
						t.Fatalf("%s: 200 with %d bytes that do not hash to the digest asked for", what, rec.Body.Len())
					}
				}
			case http.StatusPartialContent:
				var from, to, size int64
				cr := rec.Header().Get("Content-Range")
				if _, err := fmt.Sscanf(cr, "bytes %d-%d/%d", &from, &to, &size); err != nil || int64(rec.Body.Len()) != to-from+1 {
					t.Fatalf("%s: 206 with %d bytes under Content-Range %q", what, rec.Body.Len(), cr)
				}
			}
		}
	})
}
