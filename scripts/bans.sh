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
        echo "ban $name: $n sites match $regex, at most $budget allowed" >&2
        fail=1
    fi
    echo "$name $n/$budget"
}

# Suppressions of a comtainer-vet finding in product code (bench/ has
# its own four).
ban allow 14 '//comtainer:allow' bench
# A request is built in distrib.Client.Do; the other two are the fleet
# proxy's reverse-proxy steps (relay, forwardFarm).
ban http.NewRequest 3 'http\.NewRequest'
# A temp file is made by faultinject.Commit, an action-cache segment by
# faultinject.CreateAppend; the one is DiskStore.Ingest, which streams
# before it knows the target directory.
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
# whole (Commit) or appended to at the end of its valid prefix
# (AppendFile — the fleet write log and the action cache's segments).
# The three, none under a store root: experiments/export.go (CSV),
# fsim/osimport.go (export to host), distrib/upload.go (upload spool).
ban os-write 3 'os\.(WriteFile|Create|OpenFile)\(' faultinject bench
# A body is read at its size, under a bound (oci.ReadSized), or through
# an io.LimitReader: never to wherever it ends, in a buffer that doubles
# on the way. The three left are decompressors, whose output has no
# length to know up front: oci's gunzip, core/cache's layer inflate,
# tarfs's entry read.
ban unbounded-read 3 'io\.ReadAll\(($|[^i]|i($|[^o]|o($|[^.]|\.($|[^L]))))'
exit $fail
