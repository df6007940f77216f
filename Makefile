.PHONY: check build test bench benchdiff lint apisurface audit-goldens fuzz

check:
	sh scripts/check.sh

# fuzz runs the long differential-fuzzing soak (default: seed 1, 5 minutes,
# JSON summary in FUZZ_SUMMARY.json), then each native Go fuzz target for
# FUZZTIME (default 30s each). Override with SEED=, MINUTES=, OUT=,
# FUZZTIME=. `make check` runs a small fixed-seed batch of the same
# invariants and replays the native targets' seed corpora.
fuzz:
	sh scripts/fuzz.sh

build:
	go build ./...

test:
	go test ./...

# bench writes BENCH_9.json (min-of-COUNT ns/op per benchmark, including
# the job-queue throughput series from internal/jobs) and then gates: >10%
# regression vs the previous BENCH_*.json in the frozen cost-benefit
# analysis or any profiled_s16 overhead series fails the target.
# `make check` runs the same comparison report-only.
bench:
	sh scripts/bench.sh 9
	sh scripts/benchdiff.sh

benchdiff:
	sh scripts/benchdiff.sh

# Full static lint: the vet suite over all 18 workloads, compared against
# the golden files in internal/staticanalysis/testdata/vet/. Regenerate the
# goldens after an intended diagnostics change with:
#   go test ./internal/staticanalysis -run TestVetGoldenWorkloads -update
lint:
	go test ./internal/staticanalysis -run TestVetGoldenWorkloads -count=1

# Public-API pin for the root package. Regenerate after an intended API
# change with: sh scripts/apisurface.sh -update
apisurface:
	sh scripts/apisurface.sh

# Regenerate the static-audit golden reports (internal/escape/testdata/audit/)
# after an intended scoring or escape-analysis change. `make check` runs the
# same test without -update as a diff gate.
audit-goldens:
	go test ./internal/escape -run TestAuditGoldenWorkloads -update
