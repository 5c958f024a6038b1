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
# The repository's own 7-analyzer suite (digestcmp, safejoin,
# errpropagate, ctxflow, and the CFG-based lifecycle passes bodyclose,
# closeleak, timerstop). Shared state is the race detector's, in the
# -race steps below.
# Diagnostics are printed as path:line:col: [analyzer] message — the
# [analyzer] tag names the invariant that failed; see DESIGN.md
# "Static analysis" and "CFG & dataflow". One run over every package
# from source, about a second.
if ! go run ./cmd/comtainer-vet ./...; then
    echo "comtainer-vet FAILED: an invariant above was violated." >&2
    echo "Fix the finding or, for a deliberate exception, add" >&2
    echo "  //comtainer:allow <analyzer> -- <reason>" >&2
    exit 1
fi

echo "== ratchets =="
# Invariants that are a spelling with a budget, not a dataflow fact:
# scripts/bans.sh holds the one function, the sixteen lines and, beside
# each, its budget and who owns it — //comtainer:allow suppressions,
# an http.Server or ListenAndServe outside daemon.Serve,
# http.NewRequest outside distrib.Client.Do, CreateTemp outside
# distrib's one temp-file writer, io.ReadAll of anything but an io.LimitReader (a
# blob body is read at its size, by oci.ReadSized), bufio.NewScanner
# (in-memory input is scanned in place), PATCH outside the registry
# front-end (a client sends a blob in one request), a layout directory
# opened or saved outside cmd/comtainer's resolver, a sha256 taken
# anywhere but a trust boundary or a key writer, and the seven that
# replaced an analyzer with nothing to look at: time.Sleep,
# digest.Digest( conversions, "sha256: literals, function-style
# sync/atomic, os.WriteFile/Create/OpenFile outside the
# faultinject.FS seam, and the go statements and sync.WaitGroups whose
# joins the tests show. Every budget only goes down.
sh scripts/bans.sh cmd examples internal bench

echo "== go build =="
go build ./...

echo "== chaos (-race, -short seed subset) =="
# Fast fault-injection smoke: crash-restart-verify cycles over a
# reduced seed subset (-short trims 100 seeds to 10 per suite) for each
# store — DiskStore, DiskTags, DiskCache, and an OCI layout saved fresh
# and re-saved over a good one (…CrashRestartVerify,
# …SaveLayoutCrashConsistency) — the action cache's and the tag log's
# power cut at every one of a run's file-system operations in turn,
# enumerated rather than sampled (…EnumeratedCrashPoints), the
# append-only logs' one rule (AppendFile…, WriteLogAppendAfterTornTail)
# — plus
# the resume/cancellation tests, the remote-execution farm
# chaos (worker killed mid-action, lossy result uploads) and the
# registry-fleet chaos (leader killed mid-push: every acknowledged
# write must survive follower promotion). CI's dedicated chaos job
# runs the same script without -short, the full 100-seed sweep; this
# step catches regressions in seconds.
sh scripts/chaos.sh -short

echo "== shared state (-race -count=10) =="
# State this repo lets several goroutines reach at once is exercised
# from several at once, ten times over: the *File entries fsim.Clone
# shares between file systems and the layer trees eight folds read at
# once (ApplyAllShared…), the scheduler's parked long polls
# (woken by events and by the expiry timer, never by a tick) and a
# worker kept alive by its open lease poll while its one slot is busy
# for longer than the expiry window (BusyWorkerStaysAlive), and the
# upload manager while one session's chunk or commit is stalled, and
# the layer trees an oci.Store remembers (handed out only as clones,
# re-verified under another diffID, dropped with their blob, clean under
# concurrent Flatten/Put/Delete), and one action-cache directory under
# two openers, each written from several goroutines, and the index entry
# of one repository while several others pull its tag
# (ConcurrentPullsFromOneRepository), and one tag set from several
# goroutines at once (DiskTagsConcurrentSetsAgree), and the rebuild
# executor's workers, each waiting on the done channels of commands
# other workers run (ExecuteGraph…, CommandDAG…, and CommandCycle…,
# which must fail at once rather than hang), and a farm session's
# layer chains, which several slots and workers build from one kept
# parent tree at once (SecondSessionShipsOnlyItsLayer,
# WorkerComposesTheRebuildContainer, FarmPGOLoop, HostileTree…), and the
# verified blob bytes a DiskStore holds, which reads share and Delete
# drops while other reads are in flight (HeldBlob…, RottenBlobNeverHeld,
# HeadsAndEarlyStops…, HeldBytesBounded, and RangeGetServesOnlyVerified…
# through a registry). And every type with a mutex, one test each
# (…ConcurrentUse): each method that takes the lock runs in a goroutine
# of its own beside one that writes, so a section left unlocked is a
# race the detector reports, which is what the deleted lock analyzers
# were for (EXPERIMENTS.md, "The lock passes against -race"); and the
# two mutexes never held across I/O, each with a caller stalled in the
# file system while another's call must finish (…HeadOfLine).
go test -race -count=10 -run 'CloneShar|ApplyAllShared|SchedulerWake|SchedulerExpiryTimer|BusyWorkerStaysAlive|UploadHeadOfLine|UploadCommitSeals|LayerMemo|PushImageShares|DiskCacheTwoOpeners|ConcurrentPulls|DiskTagsConcurrentSets|ExecuteGraph|CommandDAG|CommandCycle|SecondSessionShipsOnlyItsLayer|WorkerComposesTheRebuildContainer|FarmPGOLoop|HostileTreeFailsTheTask|HeldBlob|RottenBlobNeverHeld|HeadsAndEarlyStops|HeldBytesBounded|RangeGetServesOnlyVerified|ConcurrentUse|HeadOfLine' \
    ./internal/fsim ./internal/remoteexec ./internal/distrib ./internal/oci ./internal/actioncache ./internal/core/backend ./internal/registry \
    ./internal/faultinject ./internal/containerfile ./internal/fleet

echo "== fuzz smoke (16 x 10s) =="
# Ten seconds of coverage-guided mutation on each parser that takes
# bytes from outside the process. tarfs.Unmarshal takes a layer straight
# from a registry, and a farm session's tree the same way (remoteexec
# ships one as a layer blob and has no tree parser of its own): fuzzed
# against the copying decoder it replaced (same verdict, same tree,
# archive never written, no File.Data with capacity to append into it).
# The layers so decoded are folded by fsim.ApplyAll: fuzzed against the
# fold it replaced (same state, every layer left as it was).
# The action cache's segment scan takes files from
# a cache directory — shared, possibly written by another user's crashed
# process: no panic, no indexed record leaves its file, whatever is
# served hashes to its header's digest, and a cut or a flipped bit costs
# no record before it. DecodeManifest/DecodeResult take the documents
# out of such a segment or a registry blob: no panic, and what decodes
# re-encodes to the same value. The farm scheduler takes JSON on every
# route, action records and overlays included: a sequence of requests
# never panics, every answer is a status its route documents, and the
# scheduler's books balance after each. The dpkg status file comes inside
# a pulled image and is read by the redirect and the front-end: no panic,
# and what loads is what the status writer gives back, field for field.
# Version strings come from the same file and from an index: comparing
# them never panics and is a total preorder (reflexive, antisymmetric,
# transitive), whatever the bytes.
# Registry front-end requests (path, Range, Content-Range): no panic or 5xx; blob and 206 bodies match what they name.
# A registry's tag log is replayed from whatever a crash left: no
# panic, and after one Set a reopen gives the tags the first open found
# plus that Set, nothing from the tail it overwrote.
# Compiler and ar command lines come out of an image's cache layer: no
# panic, and what parses renders to an argv that parses and renders the
# same (a compiler command to the argv it came from).
# An OCI layout directory is what every image verb opens: whatever its
# marker, index.json (imported into a tag log) and blob files hold,
# distrib.LoadLayout does not panic,
# refuses a blob file whose bytes do not hash to its name, and every tag
# it lists loads and flattens to a tree or to an error.
# A Containerfile is a user's file (comtainer build -containerfile): no
# panic, and what parses renders to text that parses to the same stages
# and instructions. A RUN line in it goes to the shell parser: no
# panic, and each command it gives renders to a line that parses back
# to that one argv. The build cache and the layers stages share are
# held to a build without them: a cold, a warm and a warm build into a
# fresh repository commit every stage as a build with no cache does.
# A RUN make goes to the Makefile interpreter: Parse and then Build on an
# in-memory file system never panic, and the build ends, with an error
# (a variable that refers to itself, a pattern rule met again in its own
# chain) or with each target's recipe run at most once.
# The cache layer of a user's +coM image is what a rebuild reads first:
# cache.Read never panics, and every source it returns lies at a clean
# absolute path the models declare (a models document that inflates
# past the bound is refused, not held).
# The committed seeds under each package's
# testdata/fuzz run in every plain `go test`; this step looks past them.
# A failure writes its input beside the seeds. Minimization is off: with
# it the two workers spend the whole ten seconds shrinking their first
# coverage-raising input (~100 executions instead of ~150,000).
go test -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime 10s -fuzzminimizetime 0 ./internal/tarfs
go test -run '^$' -fuzz '^FuzzApplyLayers$' -fuzztime 10s -fuzzminimizetime 0 ./internal/fsim
go test -run '^$' -fuzz '^FuzzSegmentScan$' -fuzztime 10s -fuzzminimizetime 0 ./internal/actioncache
go test -run '^$' -fuzz '^FuzzDecodeDocuments$' -fuzztime 10s -fuzzminimizetime 0 ./internal/actioncache
go test -run '^$' -fuzz '^FuzzSchedulerRequests$' -fuzztime 10s -fuzzminimizetime 0 ./internal/remoteexec
go test -run '^$' -fuzz '^FuzzParseControl$' -fuzztime 10s -fuzzminimizetime 0 ./internal/dpkg
go test -run '^$' -fuzz '^FuzzCompareVersions$' -fuzztime 10s -fuzzminimizetime 0 ./internal/dpkg
go test -run '^$' -fuzz '^FuzzFrontend$' -fuzztime 10s -fuzzminimizetime 0 ./internal/registry
go test -run '^$' -fuzz '^FuzzTagLogReplay$' -fuzztime 10s -fuzzminimizetime 0 ./internal/distrib
go test -run '^$' -fuzz '^FuzzParseRender$' -fuzztime 10s -fuzzminimizetime 0 ./internal/cclang
go test -run '^$' -fuzz '^FuzzParseRender$' -fuzztime 10s -fuzzminimizetime 0 ./internal/containerfile
go test -run '^$' -fuzz '^FuzzParseRender$' -fuzztime 10s -fuzzminimizetime 0 ./internal/shell
go test -run '^$' -fuzz '^FuzzBuildReproduces$' -fuzztime 10s -fuzzminimizetime 0 ./internal/containerfile
go test -run '^$' -fuzz '^FuzzLoadLayout$' -fuzztime 10s -fuzzminimizetime 0 ./internal/oci
go test -run '^$' -fuzz '^FuzzMakefile$' -fuzztime 10s -fuzzminimizetime 0 ./internal/makesim
go test -run '^$' -fuzz '^FuzzReadCacheLayer$' -fuzztime 10s -fuzzminimizetime 0 ./internal/core/cache

echo "== go test -race =="
go test -race ./...

echo "All checks passed."
