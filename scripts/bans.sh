#!/bin/sh
# Spelling bans: invariants that are a grep with a budget. Each line
# below counts a regex over the non-test Go files under the roots given
# as arguments (scripts/check.sh passes the product roots) and fails
# when the count exceeds its budget. Budgets only go down: a change
# that removes a site lowers the number with it, and one that needs a
# new site removes another or argues for the number here, in review.
# An invariant that needs types, paths or locksets to state is a
# comtainer-vet analyzer instead (DESIGN.md §6). BAN_BUDGET=0 forces
# every budget to zero: internal/analysis's TestBansFire runs that over
# the vet fixture to show each line fires.
set -eu
roots=$*
fail=0

# ban <name> <budget> <regex> [excluded dir...] — tests, testdata and
# the analyzers' own sources are always excluded.
ban() {
    name=$1 budget=${BAN_BUDGET:-$2} regex=$3
    shift 3
    excl=
    for d in analysis testdata "$@"; do excl="$excl --exclude-dir=$d"; done
    # shellcheck disable=SC2086 # $excl and $roots are word lists
    hits=$(grep -rnE --include='*.go' --exclude='*_test.go' $excl -e "$regex" $roots) || true
    n=$(printf '%s\n' "$hits" | grep -c .) || true
    if [ "$n" -gt "$budget" ]; then
        printf '%s\n' "$hits" >&2
        printf 'ban %s: %s sites match %s, at most %s allowed\n' "$name" "$n" "$regex" "$budget" >&2
        fail=1
    fi
    echo "$name $n/$budget"
}

# Suppressions of a comtainer-vet finding in product code (bench/ has
# its own four).
ban allow 2 '//comtainer:allow' bench
# A daemon serves through daemon.Serve, which holds the one http.Server:
# header and idle timeouts, a body cut when it stops arriving, a drain
# on stop. bench/servers.go keeps its own copy until it moves onto Serve.
ban http-server 1 'http\.ListenAndServe|http\.Server\{' bench
# A request is built in distrib.Client.Do; the other two are the fleet
# proxy's reverse-proxy steps (relay, forwardFarm).
ban http.NewRequest 3 'http\.NewRequest'
# A temp file is made by distrib's writeTemp (a DiskStore's ingest, and
# the marker and index.json view of an image directory), an action-cache
# segment by faultinject.CreateAppend.
ban CreateTemp 1 'CreateTemp\(' faultinject
# Waiting selects a timer against ctx.Done() (distrib.Client.Retry).
ban time.Sleep 0 'time\.Sleep\('
# A Digest outside internal/digest comes from FromBytes/FromString/
# FromHash/FromHex/Parse, never from a conversion or a spelled prefix.
ban digest-conversion 0 'digest\.Digest\(' digest
ban sha256-literal 0 '"sha256:' digest
# Atomics are atomic.Int64/Bool values: no plain access to mix with.
ban atomic-function 0 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int|Uint|Pointer)'
# Stores write through the faultinject.FS seam: a file is committed
# whole (a temp file renamed into place) or appended to at the end of
# its valid prefix
# (AppendFile — the fleet write log, the registry's tag log and the
# action cache's segments).
# The two, neither under a store root: experiments/export.go (CSV) and
# fsim/osimport.go (export to host).
ban os-write 2 'os\.(WriteFile|Create|OpenFile)\(' faultinject bench
# A body is read at its size, under a bound (oci.ReadSized), or through
# an io.LimitReader: never to wherever it ends, in a buffer that doubles
# on the way. Inflating is oci.Gunzip, under a bound; the one left is
# tarfs's sparse-entry read, held to its archive's own length.
ban unbounded-read 1 'io\.ReadAll\(($|[^i]|i($|[^o]|o($|[^.]|\.($|[^L]))))'
# In-memory input is scanned in place (strings.Cut, bytes.Cut): no
# per-call line buffer, no line-length limit.
ban scanner 0 'bufio\.NewScanner\('
# An image store is opened and saved by cmd/comtainer's resolver (open,
# save), which reads a path as an image directory (distrib.LoadLayout,
# SaveLayout) and an http(s) URL as a registry repository: every verb
# takes either.
ban layout-io 2 'LoadLayout\(|\.SaveLayout\(' distrib
# A blob is hashed once per trust boundary (DESIGN.md §2): a site is an
# intake's check (the oci.Store entries and Receiver, a layer's diffID at
# its first decode, the registry front-end, DiskStore's verifying reader
# and ingest, fsck, the fleet proxy's relay), a key writer's key (Put,
# PutJSON, PutLayer, the client's PushBytes), an action-cache key or
# payload digest, or a name made from content (a profile, the
# front-end's product match). Ring hashing is sha256.Sum256 and not
# counted. A move between two stores of one
# process is no boundary and adds none.
ban hash-site 20 'digest\.FromBytes\(|sha256\.New\(' bench
# A client sends a blob in one request (distrib.Client.post): only the
# registry front-end, which serves upload sessions to outside clients,
# spells PATCH.
ban client-patch 0 'MethodPatch|"PATCH"' registry
# A goroutine is joined before the function that starts it returns.
# That is a test's to show, not an analyzer's: a test that stops what it
# started fails or hangs on a lost join, and a census of survivors
# (faultinject.Survivors) names one left running. So a go statement is a
# site for review, one at a time: cachekit.Parallel's bounded fan-out,
# the farm worker's tasks, the registry's two commit hooks, daemon
# serve's accept loop, the fleet proxy's heartbeat loop, and
# bench/servers.go's two servers.
ban go-statement 8 '^[^/]*\bgo (func|[A-Za-z_][A-Za-z0-9_.]*)\('
# A WaitGroup is such a join: cachekit.Parallel's, the farm worker's
# tasks', the proxy's heartbeat loop's and bench's servers'.
ban waitgroup 4 'sync\.WaitGroup'
exit $fail
