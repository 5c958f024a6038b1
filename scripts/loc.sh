#!/bin/sh
# Lines of Go per package: one row per `go list ./...` package with its
# non-test and _test.go line counts, then the totals. Plain text, no
# gate — run it before and after a change to see where the code went.
# Arguments are passed to `go list` in place of ./... (e.g.
# `scripts/loc.sh ./internal/oci ./internal/distrib`).
set -eu

cd "$(dirname "$0")/.."

[ "$#" -gt 0 ] || set -- ./...

go list -f '{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}} {{join .CgoFiles " "}}{{"\t"}}{{join .TestGoFiles " "}} {{join .XTestGoFiles " "}}' "$@" |
    awk -F '\t' '
    function lines(dir, files,    n, i, f, total, line) {
        total = 0
        n = split(files, f, " ")
        for (i = 1; i <= n; i++) {
            while ((getline line < (dir "/" f[i])) > 0) total++
            close(dir "/" f[i])
        }
        return total
    }
    BEGIN { printf "%-52s %9s %9s\n", "package", "non-test", "test" }
    {
        code = lines($2, $3); test = lines($2, $4)
        printf "%-52s %9d %9d\n", $1, code, test
        sumCode += code; sumTest += test
    }
    END { printf "%-52s %9d %9d\n", "total", sumCode, sumTest }'
