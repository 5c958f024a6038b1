#!/bin/sh
# Tier-1 gate: formatting, vet, build, and the full test suite under the
# race detector. Run from anywhere; operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== comtainer-vet =="
# The repository's own 12-analyzer suite (digestcmp, lockorder, lockio,
# guardedby, safejoin, errpropagate, gonaked, ctxflow, and the CFG-based
# lifecycle passes bodyclose, closeleak, timerstop, wgbalance).
# Diagnostics are printed as path:line:col: [analyzer] message — the
# [analyzer] tag names the invariant that failed; see DESIGN.md
# "Static analysis", "CFG & dataflow", and "Lockset & shared-state
# model". One run over every package from source, about a second.
if ! go run ./cmd/comtainer-vet ./...; then
    echo "comtainer-vet FAILED: an invariant above was violated." >&2
    echo "Fix the finding or, for a deliberate exception, add" >&2
    echo "  //comtainer:allow <analyzer> -- <reason>" >&2
    exit 1
fi

echo "== ratchets =="
# Invariants that are a spelling with a budget, not a dataflow fact:
# scripts/bans.sh holds the one function, the nine lines and, beside
# each, its budget and who owns it — //comtainer:allow suppressions,
# http.NewRequest outside distrib.Client.Do, CreateTemp outside
# faultinject.Commit, io.ReadAll of anything but an io.LimitReader (a
# blob body is read at its size, by oci.ReadSized), and the five that
# replaced an analyzer with nothing to look at: time.Sleep,
# digest.Digest( conversions, "sha256: literals, function-style
# sync/atomic, and os.WriteFile/Create/OpenFile outside the
# faultinject.FS seam. Every budget only goes down.
sh scripts/bans.sh cmd examples internal bench

echo "== go build =="
go build ./...

echo "== chaos (-race, -short seed subset) =="
# Fast fault-injection smoke: crash-restart-verify cycles over a
# reduced seed subset (-short trims 100 seeds to 10 per suite) for each
# store — DiskStore, DiskTags, DiskCache, and an OCI layout saved fresh
# and re-saved over a good one (…CrashRestartVerify,
# …SaveLayoutCrashConsistency) — the action cache's power cut at every
# one of a run's file-system operations in turn, enumerated rather than
# sampled (…EnumeratedCrashPoints), the append-only logs' one rule
# (AppendFile…, WriteLogAppendAfterTornTail) — plus
# the resume/cancellation/breaker tests, the remote-execution farm
# chaos (worker killed mid-action, lossy result uploads) and the
# registry-fleet chaos (leader killed mid-push: every acknowledged
# write must survive follower promotion). CI's dedicated chaos job
# runs the same script without -short, the full 100-seed sweep; this
# step catches regressions in seconds.
sh scripts/chaos.sh -short

echo "== shared state (-race -count=10) =="
# State this repo lets several goroutines reach at once is exercised
# from several at once, ten times over: the *File entries fsim.Clone
# shares between file systems, the scheduler's parked long polls
# (woken by events and by the expiry timer, never by a tick), and the
# upload manager while one session's chunk or commit is stalled, and
# the layer trees an oci.Store remembers (handed out only as clones,
# re-verified under another diffID, dropped with their blob, clean under
# concurrent Flatten/Put/Delete), and one action-cache directory under
# two openers, each written from several goroutines, and the index entry
# of one repository while several others pull its tag
# (ConcurrentPullsFromOneRepository).
go test -race -count=10 -run 'CloneShar|SchedulerWake|SchedulerExpiryTimer|UploadHeadOfLine|UploadCommitSeals|LayerMemo|CopyImageVerifies|DiskCacheTwoOpeners|ConcurrentPulls' \
    ./internal/fsim ./internal/remoteexec ./internal/distrib ./internal/oci ./internal/actioncache

echo "== fuzz smoke (3 x 10s) =="
# Ten seconds of coverage-guided mutation on each parser that takes
# bytes from outside the process. tarfs.Unmarshal takes a layer straight
# from a registry, and a farm session's tree the same way (remoteexec
# ships one as a layer blob and has no parser of its own): fuzzed
# against the copying decoder it replaced (same verdict, same tree,
# archive never written, no File.Data with capacity to append into it).
# The action cache's segment scan takes files from
# a cache directory — shared, possibly written by another user's crashed
# process: no panic, no indexed record leaves its file, whatever is
# served hashes to its header's digest, and a cut or a flipped bit costs
# no record before it. DecodeManifest/DecodeResult take the documents
# out of such a segment or a registry blob: no panic, and what decodes
# re-encodes to the same value. The committed seeds under each package's
# testdata/fuzz run in every plain `go test`; this step looks past them.
# A failure writes its input beside the seeds. Minimization is off: with
# it the two workers spend the whole ten seconds shrinking their first
# coverage-raising input (~100 executions instead of ~150,000).
go test -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime 10s -fuzzminimizetime 0 ./internal/tarfs
go test -run '^$' -fuzz '^FuzzSegmentScan$' -fuzztime 10s -fuzzminimizetime 0 ./internal/actioncache
go test -run '^$' -fuzz '^FuzzDecodeDocuments$' -fuzztime 10s -fuzzminimizetime 0 ./internal/actioncache

echo "== go test -race =="
go test -race ./...

echo "All checks passed."
