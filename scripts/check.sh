#!/bin/sh
# Pre-PR gate: formatting, vet, build, tests. Run via `make check` or
# directly. Fails fast with the first offending step.
set -e
cd "$(dirname "$0")/.."

unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
# A second, named vet pass for the two analyzers whose findings have bitten
# this codebase before (copied sync.Mutex values, code after panic/return):
# running them alone makes a failure name the analyzer instead of drowning
# it in the full-suite output.
go vet -copylocks -unreachable ./...
go build ./...
# The benchmark (perfbench/) is its own module, so ./... above never
# compiles it. Vet and test it here: a facade change that breaks the
# benchmark must fail the gate, not the next benchmark run.
(cd perfbench && go vet . && go test -count=1 .)
# -shuffle=on randomizes test execution order within each package, keeping
# hidden inter-test state dependencies from taking root. The linear-work
# gate times CPU and runs alone in its own step below, not beside the other
# packages' tests.
go test -shuffle=on -skip '^TestStaticScaling$' ./...
# Public-API pin: the exported surface of the root package must match the
# checked-in golden (scripts/apisurface.golden).
sh scripts/apisurface.sh
# Static-analysis gates, run explicitly so a failure names the gate: the
# vet lint suite over all 18 workloads against its golden files, and the
# static-vs-dynamic Gcost containment harness (-short subset — the full
# 18-workload × {CHA, RTA} sweep already ran inside `go test ./...`).
make lint
# The dense (reaching-definitions) vet engine is the SSA engine's
# reference. With the slice surface's static Gcost it is one of the two
# readers of internal/ir's reaching definitions (vet's SSA engine and the
# audit read none), so the differential runs as its own step.
go test ./internal/staticanalysis -run TestVetDifferential -count=1
# Linear-work gate of the static surfaces: from n to 4n lines of a
# chain of branches (2,000 → 8,000), of a loop of field loads
# (1,500 → 6,000) and of counted loops in a row (1,000 → 4,000), compile,
# vet, audit and the SSA dump may allocate at most 5× the bytes and spend
# at most 6× the CPU time (each the minimum of three runs). The slice
# surface is still quadratic and not gated.
go test . -run '^TestStaticScaling$' -count=1
go test ./internal/interproc -run TestSoundnessAllWorkloads -short -count=1
# Rank-correlation regression gate: the frequency-weighted static bounds
# must keep matching the recorded precision baseline
# (internal/evalharness/testdata/precision.golden) and beating the
# unweighted bounds on mean Spearman rho.
go test ./internal/evalharness -run TestPrecisionRankCorrelation -short -count=1
# Static-audit gates. Soundness runs the full 18-workload sweep (non-short:
# every dynamically observed escape must be within the static verdict);
# the golden gate pins the ranked audit reports; the precision gate pins
# the audit-vs-dynamic Spearman rows and enforces the >= +0.70 mean floor.
# Regenerate audit goldens after an intended change with
# `make audit-goldens`.
go test ./internal/escape -run TestEscapeSoundnessAllWorkloads -count=1
go test ./internal/escape -run TestAuditGoldenWorkloads -count=1
# The slice goldens pin `lowutil slice`'s report (top 10, all 18 workloads,
# RTA and CHA with receiver-object context). Regenerate after an intended
# change with
#   go test ./internal/interproc -run TestSliceGoldenWorkloads -update
go test ./internal/interproc -run TestSliceGoldenWorkloads -count=1
go test ./internal/evalharness -run TestAuditPrecisionRankCorrelation -short -count=1
# The claim sheet's golden: the four deterministic sections of
# `lowutil experiments` at scale 8 must equal EXPERIMENTS.md's fenced
# blocks byte for byte, with profiles run synchronously (-cpu 1) and
# detached (-cpu 2). The -short passes skip it. After an intended change,
# rewrite the blocks with
#   go test ./internal/evalharness -run TestExperimentsGolden -update
go test ./internal/evalharness -run TestExperimentsGolden -cpu 1,2 -count=1
# Short differential-fuzzing budget: a small deterministic batch through
# every engine-pair invariant (see DESIGN.md §14). The long soak is
# `make fuzz`.
go run ./cmd/lowutil fuzz -seed 1 -n 50
# The analysis pipeline is parallel; -short keeps the race pass fast by
# trimming the all-workload differential sweeps to a subset.
go test -race -short -shuffle=on ./...
# The job queue under the race detector at two GOMAXPROCS values, without
# -short: TestConcurrentSoak runs its full 1.5 s of submitters, readers
# and record GC against the one heap, then drains under load. A drain and
# a job's error body cross into the server (its executor classifies the
# errors, its Close drains), so the same pass runs the server's job and
# drain tests and serve's shutdown tests with followers attached.
go test -race -count=1 -cpu 1,4 ./internal/jobs
go test -race -count=1 -cpu 1,4 -run 'Job|Drain' ./internal/server
go test -race -count=1 -cpu 1,4 -run TestServeShutdown ./cmd/lowutil
# A finished profile's derived views (graph stats, deadness, ranking, static
# cross-check) are built once, on first use, and shared by every reader:
# the same flags run concurrent cold queries on one profile, in process and
# on one server session.
go test -race -count=1 -cpu 1,4 -run '^TestConcurrentQueriesOnOneProfile$' .
go test -race -count=1 -cpu 1,4 -run '^TestConcurrentQueriesOneSession$' ./internal/server
# The detached profiler under both selections: at GOMAXPROCS 1 no run may
# detach and at 2 every long run must, and either way Gcost must match the
# synchronous reference byte for byte (-short keeps two workloads). The
# same pass runs the step-window differentials (windows that close and
# open after a detach) and the client differentials (every client's
# golden on both engines, and the method-cost wrapper past the detach
# threshold, which must decline to detach).
go test -race -short -cpu 1,2 -count=1 -run '^(TestEngineDifferentialDetached|TestWindow|TestWindowDetached)$' ./internal/profiler
go test -race -short -cpu 1,2 -count=1 -run '^(TestClientGolden|TestMethodCostIgnoresDetach)$' ./internal/clients
# Smoke-run the dispatch benchmark (one iteration): catches handler-table
# regressions that only manifest under the benchmark harness, without
# paying for a timed run.
go test -run=NONE -bench=Dispatch -benchtime=1x .
# Perf-trajectory report: compares the two newest BENCH_*.json. Report-only
# here; `make bench` runs the same comparison as a hard gate.
sh scripts/benchdiff.sh -report
echo "check: OK"
