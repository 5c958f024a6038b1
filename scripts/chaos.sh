#!/bin/sh
# Fault-injection sweep under the race detector: the one spelling of
# which tests and packages are "chaos". scripts/check.sh runs it with
# -short (each suite trims its 100 seeds to 10), CI's chaos job without.
set -eu

cd "$(dirname "$0")/.."

go test -race -count=1 "$@" \
    -run 'Chaos|CrashRestartVerify|EnumeratedCrashPoints|SaveLayoutCrashConsistency|AppendFile|TornTail|Resume|CancelAborts' \
    ./internal/distrib ./internal/actioncache ./internal/oci ./internal/remoteexec ./internal/fleet ./internal/faultinject
