#!/bin/sh
# Runs the key analysis benchmarks and writes BENCH_<idx>.json (one object
# per benchmark: ns/op, B/op, allocs/op) so the perf trajectory is tracked
# across changes. The index is the first argument; without one, the script
# writes one past the highest existing BENCH_<n>.json, so earlier records
# are never overwritten. OUT overrides the path entirely. Each benchmark
# runs COUNT times (default 3) and the minimum ns/op is recorded — this
# VM's run-to-run noise is ±30-50%, and the minimum is the estimate least
# polluted by scheduler and GC interference. Benchmarks run at -cpu 1, the
# setting every earlier record was taken at: go test appends -N to a
# benchmark's name when GOMAXPROCS is N > 1, and benchdiff.sh matches
# records by name. Override the selection or duration with:
#
#   sh scripts/bench.sh          next free index
#   sh scripts/bench.sh 12       explicit index
#   BENCH='BenchmarkCostBenefitAnalysis' BENCHTIME=2s COUNT=5 sh scripts/bench.sh
set -e
cd "$(dirname "$0")/.."

IDX="$1"
if [ -z "$IDX" ]; then
    last=$(ls BENCH_*.json 2>/dev/null | sed 's/^BENCH_\([0-9]*\)\.json$/\1/' | sort -n | tail -1)
    IDX=$(( ${last:-0} + 1 ))
fi
BENCH="${BENCH:-BenchmarkCostBenefitAnalysis|BenchmarkDeadness|BenchmarkOverhead|BenchmarkInterpreterRaw|BenchmarkPointsTo|BenchmarkStaticSlice|BenchmarkCancelCheck|BenchmarkSSAConstruct|BenchmarkSCCP|BenchmarkLoopForest|BenchmarkVetEngines|BenchmarkNodeIntern|BenchmarkDispatch|BenchmarkEscapeAnalysis|BenchmarkStaticAudit|BenchmarkVetEscapeLints|BenchmarkJobThroughput}"
BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-3}"
OUT="${OUT:-BENCH_${IDX}.json}"

go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -count "$COUNT" -cpu 1 -benchmem . ./internal/jobs \
    | tee /dev/stderr \
    | awk '
        /^Benchmark/ {
            name = $1
            ns = ""; bytes = ""; allocs = ""
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op")     ns = $i
                if ($(i+1) == "B/op")      bytes = $i
                if ($(i+1) == "allocs/op") allocs = $i
            }
            if (ns == "") next
            # Keep the minimum ns/op seen for each benchmark name.
            if (!(name in best) || ns + 0 < best[name] + 0) {
                best[name] = ns
                bbytes[name] = bytes
                ballocs[name] = allocs
            }
            if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
        }
        END {
            print "["
            for (i = 0; i < n; i++) {
                name = order[i]
                line = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %s", name, best[name])
                if (bbytes[name] != "")  line = line sprintf(", \"bytes_per_op\": %s", bbytes[name])
                if (ballocs[name] != "") line = line sprintf(", \"allocs_per_op\": %s", ballocs[name])
                line = line "}"
                print line (i < n-1 ? "," : "")
            }
            print "]"
        }
    ' > "$OUT"

echo "bench: wrote $OUT" >&2
