#!/bin/sh
# Long-soak differential fuzzing (see DESIGN.md §14): generates random MJ
# programs and checks every engine-pair invariant on each, shrinking any
# failure to a minimal reproducer. Seeded and time-boxed, so a soak is
# reproducible: rerunning with the same SEED replays the same programs.
# After the soak, each native Go fuzz target runs under the coverage-guided
# fuzzer for FUZZTIME (go test only replays their seed corpora).
#
#   SEED=7 MINUTES=30 FUZZTIME=2m sh scripts/fuzz.sh
#
# SEED      root seed (default 1); program i derives its own seed from it.
# MINUTES   wall-clock budget of the program soak (default 5).
# OUT       JSON summary path (default FUZZ_SUMMARY.json, gitignored).
# FUZZTIME  -fuzztime of each native target (default 30s): a duration such
#           as 30s or 2m, or an iteration count such as 1000x.
#
# Exit status is non-zero if any invariant was violated or any native target
# failed; the summary's failures[] then carries the original and shrunk
# reproducer sources, and the go fuzzer writes a failing input under the
# target package's testdata/fuzz/.
set -e
cd "$(dirname "$0")/.."

SEED="${SEED:-1}"
MINUTES="${MINUTES:-5}"
OUT="${OUT:-FUZZ_SUMMARY.json}"
FUZZTIME="${FUZZTIME:-30s}"

status=0
go run ./cmd/lowutil fuzz -seed "$SEED" -n 0 -minutes "$MINUTES" -v -json >"$OUT" || status=$?
echo "fuzz: summary written to $OUT"

# package:target for every native fuzz target.
for t in \
    ./internal/depgraph:FuzzDenseMatchesMapModel \
    .:FuzzInlineCacheInvalidation \
    ./internal/ssa:FuzzRoundTrip \
    ./internal/escape:FuzzEscapeMonotone; do
    pkg="${t%%:*}"
    name="${t#*:}"
    echo "fuzz: $name ($pkg) for $FUZZTIME"
    go test "$pkg" -run=NONE -fuzz="^$name\$" -fuzztime="$FUZZTIME" || {
        echo "fuzz: $name failed" >&2
        status=1
    }
done
exit "$status"
