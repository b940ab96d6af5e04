#!/usr/bin/env bash
# ci.sh — the full local gate, exactly what a CI runner executes.
#
#   1. tier-1 verify: default preset build + full ctest suite
#   2. strict build: tidy preset (CCM_WERROR=ON, compile_commands)
#   3. thread-safety analysis: Clang build with -Wthread-safety and
#      -Werror=thread-safety-analysis over the annotated locking
#      layer (docs/STATIC_ANALYSIS.md "Concurrency contracts");
#      SKIPPED with a notice when no clang++ is installed
#   4. sanitize build: ASan+UBSan preset + full ctest suite
#   5. tsan: ThreadSanitizer build of the parallel-runner,
#      serve-daemon, common (sync/shutdown/log), metrics-registry,
#      sharded-classification, sample-lane and trace-view tests
#   6. static analysis: tools/ccm-lint (sync-primitive ban always;
#      clang-tidy when available)
#   7. doc links: tools/check-doc-links.sh over the markdown tree
#   8. observability smoke: ccm-sim --stats-json on a tiny suite run,
#      validated and rendered by ccm-report; --jobs 2 must produce a
#      stats document, interval windows included, identical to
#      --jobs 1 modulo wall-time fields;
#      the sharded classify engine (--classify --suite --shards 4)
#      must produce a stats document byte-identical to --shards 1,
#      and so must a gcc trace file long enough for the parallel open
#      check and partition to split it, and one whose delta body holds
#      four or more byte ranges of the parallel delta open, each
#      packed and delta-encoded, at --interval 997 and --shards 1, 3
#      and 4;
#      a bad geometry, MCT shape, --pref-kind, --shards or --refs 0
#      (ccm-sim single, --suite, --classify; ccm-sample; ccm-trace
#      gen; a ccm-serve --config file), --suite or --classify --suite
#      with --trace, and a malformed number on
#      every tool (sign, letters, trailing text, out of the field's
#      range, two stats targets), must give one bad-config line and
#      exit 1, never a fatal: exit, and ccm-trace gen to /dev/full
#      one io-error line and exit 1; every stats document the smoke
#      steps write passes ccm-report --check;
#      a damaged gcc trace (one garbage run, a 7-byte partial tail)
#      must run under --budget 2 --tolerate-truncation in the single,
#      --classify and --suite --trace-dir modes, classify exactly like
#      its tracecheck repair at --shards 1 and 4, fail each mode with
#      one error line and no fatal: without those options, and get
#      tracecheck validate's documented exit code for each defect
#      class;
#      sampling smoke: ccm-sample's kind:"sample" document must
#      validate, render and be byte-deterministic run to run, three
#      configurations must print bench/baselines/sample/ byte for
#      byte, a gcc generator and its packed and delta traces must give
#      one document (and the two traces one --exact document), and
#      the sampling_accuracy gate must hold;
#      reproduction tables: fourteen paper benches (partial tags, MCT
#      depth, the §5.4/§5.6 studies, the I-cache extension, and the
#      §5 timing results: Figures 3-7 and Table 1, at --jobs 4) must
#      print the tables in bench/baselines/tables/ byte for byte, and
#      Figure 2's full-tag row must equal Figure 1's 16KB-DM pooled
#      conf%/cap%;
#      examples: each of the seven examples/ programs runs once in a
#      scratch directory and exits 0
#   9. perf smoke: the benchmark (perfbench/run.py, BENCHMARK.json)
#      on classify-trace with the per-layer pass; its result line must
#      say "correct": true and "failed": 0, i.e. every document matched
#      perfbench/digests.json and every layer metric was measured;
#      SKIPPED with a notice when no python3 is installed.  Delivery
#      batching needs no CI step: tests/test_batch.cc runs the timing,
#      classify and remap drivers on one-record batches
#  10. serve smoke: ccm-serve with three concurrent producers, one of
#      them wire-corrupted; the live stats document must validate,
#      the clean streams must match batch ccm-sim byte for byte, and
#      a SIGTERM drain must exit 0 (docs/SERVING.md).  One clean
#      stream's --frames-out capture must pass tracecheck frames
#      (exit 0), and a copy with one payload byte changed must fail
#      it with the checksum-mismatch code (exit 15).  The telemetry
#      plane is scraped mid-run: Prometheus text via the `metrics`
#      command, `metrics json` validated by ccm-report, and a
#      ccm-top --once snapshot.  A second, idle ccm-serve is drained
#      by the control socket's `drain` command alone: it must exit 0
#      within 1 s and leave a final document that validates
#  11. telemetry smoke: suite stats must stay byte-identical with
#      span tracing on (telemetry is strictly observational), the
#      span file must be well-formed, a classify run's span must be
#      named after the trace it opened, and bench/telemetry_overhead
#      must hold the classify hot-path overhead under its 2% budget
#
# Fails on the first nonzero step.  Steps that need a tool the
# container lacks are skipped, not failed, and listed in the summary
# footer so a green run on a partial toolchain is visibly partial.
# Usage: tools/ci.sh [-j N]

set -euo pipefail

repo_root=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)
cd "$repo_root"

jobs=$(nproc 2>/dev/null || echo 4)
if [ "${1:-}" = "-j" ] && [ -n "${2:-}" ]; then
    jobs=$2
fi

step() {
    echo
    echo "==== ci: $* ===================================================="
}

skipped_steps=()
skip() {
    skipped_steps+=("$1")
    echo "ci: SKIPPED $1 ($2)"
}

step "tier-1 verify (default preset)"
cmake --preset default
cmake --build --preset default -j "$jobs"
ctest --preset default -j "$jobs"

step "strict-warning build (tidy preset, CCM_WERROR=ON)"
cmake --preset tidy
cmake --build --preset tidy -j "$jobs"

step "thread-safety analysis (clang, -Werror=thread-safety-analysis)"
# The capability annotations in src/common/sync.hh only bite under
# Clang; on a GCC-only container the macros expand to nothing and
# this step is skipped (the annotations still compile, which the
# strict build above proves).  CMakeLists.txt appends -Wthread-safety
# -Werror=thread-safety-analysis to CCM_STRICT_WARNINGS whenever the
# compiler is Clang, so a plain CCM_WERROR build is the gate.
if command -v clang++ >/dev/null 2>&1; then
    cmake -S . -B build-tsa -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_COMPILER=clang++ -DCCM_WERROR=ON
    cmake --build build-tsa -j "$jobs"
else
    skip "thread-safety analysis" "clang++ not installed"
fi

step "sanitizer build + tests (sanitize preset)"
cmake --preset sanitize
cmake --build --preset sanitize -j "$jobs"
ctest --preset sanitize -j "$jobs"

step "thread-sanitizer build + concurrency tests (tsan preset)"
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" --target test_parallel \
    --target test_serve --target test_common --target test_obs \
    --target test_sharded --target test_sample --target test_trace_view \
    --target test_fault_trace
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    build-tsan/tests/test_parallel
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    build-tsan/tests/test_serve
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    build-tsan/tests/test_common
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    build-tsan/tests/test_obs \
    --gtest_filter='ObsMetrics.*:ObsSpan.*'
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    build-tsan/tests/test_sharded \
    --gtest_filter='ShardedClassify.*:MappedTraceTest.*'
# The sample lane's scan, per-point MRC lanes and replay, and every
# view consumer, read one trace view from several threads; the
# delta open decodes its byte ranges on several (the *Delta* tests,
# the multi-range view test among test_trace_view's).
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    build-tsan/tests/test_sample \
    --gtest_filter='SampleMrc.*:SampleIntervals.*:SampleEngine.*'
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    build-tsan/tests/test_trace_view
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    build-tsan/tests/test_fault_trace \
    --gtest_filter='CorruptTraceTest.*View*:CorruptTraceTest.*Delta*'

step "static analysis (ccm-lint)"
tools/ccm-lint --build-dir "$repo_root/build-tidy" -j "$jobs"

step "doc link check"
tools/check-doc-links.sh

step "observability smoke (ccm-sim --stats-json | ccm-report --check)"
obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT
build/tools/ccm-sim --suite --refs 5000 --arch victim \
    --interval 1000 --stats-json "$obs_tmp/suite.json" > /dev/null
build/tools/ccm-report --check "$obs_tmp/suite.json"
build/tools/ccm-report "$obs_tmp/suite.json" > /dev/null

# Parallel determinism: the suite document at --jobs 2 must match
# --jobs 1 byte for byte once the wall-time fields are stripped.
# The interval windows each row samples on its own worker are
# diffed with the rest.
build/tools/ccm-sim --suite --refs 5000 --arch victim --jobs 1 \
    --interval 1000 --stats-json "$obs_tmp/seq.json" > /dev/null
build/tools/ccm-sim --suite --refs 5000 --arch victim --jobs 2 \
    --interval 1000 --stats-json "$obs_tmp/par.json" > /dev/null
diff <(grep -v -e wall_seconds -e records_per_sec "$obs_tmp/seq.json") \
     <(grep -v -e wall_seconds -e records_per_sec "$obs_tmp/par.json")
build/tools/ccm-report --check "$obs_tmp/seq.json"
build/tools/ccm-report --check "$obs_tmp/par.json"
build/tools/ccm-sim --workload go --refs 5000 --arch baseline \
    --interval 1000 --trace-events 64 \
    --stats-json "$obs_tmp/run.json" > /dev/null
build/tools/ccm-report --check "$obs_tmp/run.json"
build/tools/ccm-report "$obs_tmp/run.json" > /dev/null

step "sharded classify determinism (--shards 4 vs --shards 1)"
# The set-sharded engine must not change a single byte of the stats
# document for any shard count (docs/PERFORMANCE.md "Sharding
# semantics"); wall_seconds is the one sanctioned difference.
build/tools/ccm-sim --classify --suite --refs 5000 --interval 1000 \
    --shards 1 --stats-json "$obs_tmp/classify_s1.json" > /dev/null
build/tools/ccm-sim --classify --suite --refs 5000 --interval 1000 \
    --shards 4 --stats-json "$obs_tmp/classify_s4.json" > /dev/null
if ! diff <(grep -v -e wall_seconds -e records_per_sec "$obs_tmp/classify_s1.json") \
          <(grep -v -e wall_seconds -e records_per_sec "$obs_tmp/classify_s4.json"); then
    echo "FAIL: sharded classify output differs from sequential" >&2
    exit 1
fi
build/tools/ccm-report --check "$obs_tmp/classify_s1.json"
build/tools/ccm-report --check "$obs_tmp/classify_s4.json"
build/tools/ccm-report "$obs_tmp/classify_s1.json" > /dev/null
# The file lanes: gcc traces, packed and delta-encoded, at --shards
# 1, 3 and 4.  At 70k refs (280k records) the packed open check
# splits into several ranges and the partition reads five view
# chunks; at 300k refs the delta body is over 4 MiB, so the delta
# open decodes at least four byte ranges in parallel and the view's
# chunks restart at each one.  The prime interval puts window
# boundaries off every chunk boundary.  Per trace, all six documents
# must agree once wall time and the trace path (the workload field)
# are stripped.
for lane in gcc:70000 gcc_ranges:300000; do
    t=${lane%%:*}
    refs=${lane#*:}
    build/tools/ccm-trace gen gcc "$obs_tmp/$t.bin" --refs "$refs" \
        --seed 7 > /dev/null
    build/tools/ccm-trace pack "$obs_tmp/$t.bin" "$obs_tmp/$t.d.bin" \
        > /dev/null
    if [ "$t" = gcc_ranges ] &&
       [ "$(stat -c %s "$obs_tmp/$t.d.bin")" -lt $((16 + 4 * 1048576)) ]; then
        echo "FAIL: $t.d.bin is under four delta byte ranges" >&2
        exit 1
    fi
    for enc in bin d.bin; do
        for k in 1 3 4; do
            build/tools/ccm-sim --classify --trace "$obs_tmp/$t.$enc" \
                --interval 997 --shards "$k" \
                --stats-json "$obs_tmp/${t}_$enc.s$k.json" > /dev/null
            if ! diff <(grep -v -e wall_seconds -e records_per_sec \
                            -e '"workload"' "$obs_tmp/${t}_bin.s1.json") \
                      <(grep -v -e wall_seconds -e records_per_sec \
                            -e '"workload"' "$obs_tmp/${t}_$enc.s$k.json"); then
                echo "FAIL: classify of $t.$enc at --shards $k differs" >&2
                exit 1
            fi
            build/tools/ccm-report --check "$obs_tmp/${t}_$enc.s$k.json"
        done
    done
done

step "invalid config (one bad-config line, exit 1)"
# expect_code CODE CMD...: exit 1, one CODE line, no fatal: exit.
expect_code() {
    local code=$1
    shift
    local rc=0
    "$@" > "$obs_tmp/bad.out" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ] ||
       [ "$(grep -c "$code" "$obs_tmp/bad.out")" -ne 1 ] ||
       grep -q 'fatal:' "$obs_tmp/bad.out"; then
        echo "FAIL: $* (exit $rc, want one $code line):" >&2
        cat "$obs_tmp/bad.out" >&2
        exit 1
    fi
}
expect_code bad-config build/tools/ccm-sim --classify --suite --shards 4 \
    --l1-kb 3
expect_code bad-config build/tools/ccm-sample --exact --mct-depth 0
expect_code bad-config build/tools/ccm-sim --workload gcc --l1-kb 3
expect_code bad-config build/tools/ccm-sim --suite --l1-kb 3
# A suite reads one trace per workload (--trace-dir), never one --trace.
expect_code bad-config build/tools/ccm-sim --suite --trace "$obs_tmp/x.bin"
expect_code bad-config build/tools/ccm-sim --classify --suite \
    --trace "$obs_tmp/x.bin"
expect_code bad-config build/tools/ccm-sim --arch victim --buf-entries 0
expect_code bad-config build/tools/ccm-sim --arch prefetch --pref-kind bogus
expect_code bad-config build/tools/ccm-sim --refs 0
expect_code bad-config build/tools/ccm-sim --classify --shards abc
expect_code bad-config build/tools/ccm-sim --classify --shards -1
expect_code bad-config build/tools/ccm-sim --classify --shards 4294967296
expect_code bad-config build/tools/ccm-trace gen gcc "$obs_tmp/x.bin" --refs 0
# The number rule (README "Command-line numbers"): decimal digits only,
# range-checked against the field before it is stored.  Each of these
# used to run: abc read as 0, -1 wrapped, 4294967298 truncated to 2,
# 18014398509481985 KB wrapped to 1 KB at x1024, trailing text ignored.
expect_code bad-config build/tools/ccm-sim --suite --refs 1000 --jobs abc
expect_code bad-config build/tools/ccm-sim --classify --refs 1000 \
    --l1-assoc 4294967298
expect_code bad-config build/tools/ccm-sim --classify --refs 1000 \
    --l1-kb 18014398509481985
expect_code bad-config build/tools/ccm-sample --refs 2000 --intervals abc
expect_code bad-config build/tools/ccm-sample --refs 2000 \
    --stats-json "$obs_tmp/two_a.json" --stats-out "$obs_tmp/two_b.json"
expect_code bad-config build/tools/ccm-trace gen gcc "$obs_tmp/x.bin" --refs 1x
expect_code bad-config build/tools/ccm-report --top abc "$obs_tmp/run.json"
expect_code bad-config build/tools/ccm-stream --socket "$obs_tmp/none.sock" \
    --name n --refs 10x
expect_code bad-config build/tools/ccm-top --control "$obs_tmp/none.sock" \
    --iterations -1
expect_code bad-config build/tools/tracecheck repair "$obs_tmp/gcc.bin" \
    "$obs_tmp/x_repaired.bin" --budget -1
expect_code bad-config timeout 20 build/tools/ccm-serve \
    --socket "$obs_tmp/bad.sock" --max-streams -1
echo "l1-kb 3" > "$obs_tmp/bad.conf"
# The timeout only matters if the daemon wrongly accepts the file.
expect_code bad-config timeout 20 build/tools/ccm-serve \
    --socket "$obs_tmp/bad.sock" --config "$obs_tmp/bad.conf"
expect_code io-error build/tools/ccm-trace gen gcc /dev/full --refs 10

step "damaged traces (tolerant read, one error line, tracecheck codes)"
# One garbage run stamped at record 1000 and a 7-byte partial tail.
# The suite modes read the damaged gcc.bin next to 15 clean traces.
dmg="$obs_tmp/damaged"
mkdir -p "$dmg"
for w in $(build/tools/ccm-sim --list); do
    build/tools/ccm-trace gen "$w" "$dmg/$w.bin" --refs 5000 --seed 7 \
        > /dev/null
done
cp "$dmg/gcc.bin" "$obs_tmp/gcc_clean.bin"
head -c 24 /dev/zero | tr '\0' '\377' |
    dd of="$dmg/gcc.bin" bs=1 seek=$((16 + 24 * 1000)) conv=notrunc \
        status=none
truncate -s -17 "$dmg/gcc.bin"
tolerant=(--budget 2 --tolerate-truncation)
expect_rc() {
    local want=$1
    shift
    local rc=0
    "$@" > "$obs_tmp/dmg.out" 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "FAIL: $* (exit $rc, want $want):" >&2
        cat "$obs_tmp/dmg.out" >&2
        exit 1
    fi
}
expect_one_error() {
    expect_rc "$@"
    if [ "$(grep -c '^\[E ' "$obs_tmp/dmg.out")" -ne 1 ] ||
       ! grep -q '^\[E .*\] corrupt-trace: ' "$obs_tmp/dmg.out" ||
       grep -q 'fatal:' "$obs_tmp/dmg.out"; then
        shift
        echo "FAIL: $* must print exactly one error line:" >&2
        cat "$obs_tmp/dmg.out" >&2
        exit 1
    fi
}
expect_rc 0 build/tools/ccm-sim --arch victim --trace "$dmg/gcc.bin" \
    "${tolerant[@]}"
expect_rc 0 build/tools/ccm-sim --classify --trace "$dmg/gcc.bin" \
    --interval 1000 "${tolerant[@]}" \
    --stats-json "$obs_tmp/dmg_tolerant.json"
expect_rc 0 build/tools/ccm-sim --suite --trace-dir "$dmg" --arch victim \
    "${tolerant[@]}"
expect_rc 0 build/tools/tracecheck repair "$dmg/gcc.bin" \
    "$obs_tmp/gcc_repaired.bin"
expect_rc 0 build/tools/ccm-sim --classify \
    --trace "$obs_tmp/gcc_repaired.bin" --interval 1000 \
    --stats-json "$obs_tmp/dmg_repaired.json"
if ! diff <(grep -v -e wall_seconds -e records_per_sec -e '"workload"' \
                "$obs_tmp/dmg_tolerant.json") \
          <(grep -v -e wall_seconds -e records_per_sec -e '"workload"' \
                "$obs_tmp/dmg_repaired.json"); then
    echo "FAIL: tolerant classify differs from classify of the repair" >&2
    exit 1
fi
build/tools/ccm-report --check "$obs_tmp/dmg_tolerant.json"
build/tools/ccm-report --check "$obs_tmp/dmg_repaired.json"
# The defect map's two runs, partitioned in chunks, classify the same.
expect_rc 0 build/tools/ccm-sim --classify --trace "$dmg/gcc.bin" \
    --interval 1000 "${tolerant[@]}" --shards 4 \
    --stats-json "$obs_tmp/dmg_tolerant_s4.json"
if ! diff <(grep -v -e wall_seconds -e records_per_sec \
                "$obs_tmp/dmg_tolerant.json") \
          <(grep -v -e wall_seconds -e records_per_sec \
                "$obs_tmp/dmg_tolerant_s4.json"); then
    echo "FAIL: tolerant classify differs at --shards 4" >&2
    exit 1
fi
build/tools/ccm-report --check "$obs_tmp/dmg_tolerant_s4.json"
# Strict: one error line each.  The suite still runs its 15 clean rows
# and exits 2, its partial-failure code.
expect_one_error 1 build/tools/ccm-sim --arch victim --trace "$dmg/gcc.bin"
expect_one_error 1 build/tools/ccm-sim --classify --trace "$dmg/gcc.bin"
expect_one_error 2 build/tools/ccm-sim --suite --trace-dir "$dmg" \
    --arch victim
# tracecheck validate: 8 mid-file-garbage, 7 partial-tail, 5 bad-magic,
# 3 zero-length (docs/TRACE_FORMAT.md).
cp "$obs_tmp/gcc_clean.bin" "$obs_tmp/tail.bin"
truncate -s -17 "$obs_tmp/tail.bin"
cp "$obs_tmp/gcc_clean.bin" "$obs_tmp/magic.bin"
printf 'NOTATRAC' | dd of="$obs_tmp/magic.bin" conv=notrunc status=none
: > "$obs_tmp/empty.bin"
expect_rc 8 build/tools/tracecheck validate "$dmg/gcc.bin" --quiet
expect_rc 7 build/tools/tracecheck validate "$obs_tmp/tail.bin" --quiet
expect_rc 5 build/tools/tracecheck validate "$obs_tmp/magic.bin" --quiet
expect_rc 3 build/tools/tracecheck validate "$obs_tmp/empty.bin" --quiet

step "sampling smoke + determinism (kind:\"sample\" document)"
# ccm-sample must emit a valid kind:"sample" document, render cleanly,
# and be byte-deterministic (modulo wall time) — the SHARDS predicate
# and the k-means interval selection are seeded.
for run in a b; do
    build/tools/ccm-sample --workload tomcatv --refs 20000 --rate 0.05 \
        --intervals 3 --stats-out "$obs_tmp/sample_$run.json" > /dev/null
done
build/tools/ccm-report --check "$obs_tmp/sample_a.json"
build/tools/ccm-report "$obs_tmp/sample_a.json" > /dev/null
diff <(grep -v wall_seconds "$obs_tmp/sample_a.json") \
     <(grep -v wall_seconds "$obs_tmp/sample_b.json")
# The ccm-sample CLI end to end, including the error columns.
build/tools/ccm-sample --workload gcc --refs 20000 --rate 0.05 \
    --intervals 3 --exact \
    --stats-out "$obs_tmp/sample_cli.json" > /dev/null
build/tools/ccm-report --check "$obs_tmp/sample_cli.json"
# The sample lane decodes its source once and replays from checkpoints.
# Three configurations (the min-lines boost, fixed-size halving, and
# rate 1.0 with the exact references) must print the documents in
# bench/baselines/sample/ once wall time is stripped.
sample_golden() {
    local name=$1
    shift
    build/tools/ccm-sample "$@" --stats-json "$obs_tmp/golden.json" \
        > /dev/null
    if ! diff "bench/baselines/sample/$name.json" \
              <(grep -v wall_seconds "$obs_tmp/golden.json"); then
        echo "FAIL: ccm-sample $* differs from its golden $name" >&2
        exit 1
    fi
}
sample_golden gcc_boost --workload gcc --refs 200000 --intervals 8
sample_golden tomcatv_fixed_size --workload tomcatv --variant fixed-size \
    --max-lines 512 --intervals 4
sample_golden tomcatv_exact --rate 1 --exact --intervals 32
# A generator, its packed trace and its delta trace (read through
# their views in parallel chunks) give one document; the workload
# field names the source.
build/tools/ccm-trace gen gcc "$obs_tmp/s7.bin" --refs 200000 --seed 7 \
    > /dev/null
build/tools/ccm-trace pack "$obs_tmp/s7.bin" "$obs_tmp/s7.d.bin" > /dev/null
build/tools/ccm-sample --workload gcc --refs 200000 --seed 7 --intervals 8 \
    --stats-json "$obs_tmp/s7_gen.json" > /dev/null
for enc in bin d.bin; do
    build/tools/ccm-sample --trace "$obs_tmp/s7.$enc" --seed 7 \
        --intervals 8 --stats-json "$obs_tmp/s7_$enc.json" > /dev/null
    if ! diff <(grep -v -e wall_seconds -e '"workload"' \
                    "$obs_tmp/s7_gen.json") \
              <(grep -v -e wall_seconds -e '"workload"' \
                    "$obs_tmp/s7_$enc.json"); then
        echo "FAIL: ccm-sample of s7.$enc differs from the generator" >&2
        exit 1
    fi
done
# With the exact references: the rate-1.0 scan and the exact classify
# read the delta trace's ~12 view chunks as they read the packed one.
for enc in bin d.bin; do
    build/tools/ccm-sample --trace "$obs_tmp/s7.$enc" --seed 7 \
        --intervals 8 --exact --stats-json "$obs_tmp/s7x_$enc.json" \
        > /dev/null
done
if ! diff <(grep -v -e wall_seconds -e '"workload"' "$obs_tmp/s7x_bin.json") \
          <(grep -v -e wall_seconds -e '"workload"' \
                "$obs_tmp/s7x_d.bin.json"); then
    echo "FAIL: ccm-sample --exact of s7.d.bin differs from s7.bin" >&2
    exit 1
fi

step "sampling accuracy gate (bench/sampling_accuracy --gate-only)"
# 1% SHARDS pass + 12-interval reconstruction on the full 16-workload
# suite at 8M references; fails when any workload's MRC mean absolute
# error exceeds 0.02 or any reconstructed tier-1 stat is off by more
# than 5% (the wall-clock sweep columns are skipped — speedup numbers
# live in bench/baselines/BENCH_sampling.json).
build/bench/sampling_accuracy --gate-only

step "reproduction tables (paper benches vs bench/baselines/tables)"
# The printed tables are the simulated bytes of the paths Golden.*
# does not reach: partial tags in the timing lane, MCT depth > 1, and
# the pseudo-associative, biased, multithread and remap studies, and
# the I-cache extension (ext_icache, the one other bench that scores
# the oracle), and the paper's §5 timing results (Figures 3-7, Table
# 1), which print the same bytes at every --jobs and run at --jobs 4.
# Run in a scratch directory: the benches also
# write their BENCH_*.json.
mkdir -p "$obs_tmp/tables"
for b in fig1_accuracy fig2_tag_bits ablation_mct_depth \
         sec54_pseudo_assoc sec56_assoc_bias sec56_multithread \
         sec56_page_remap ext_icache fig3_victim fig4_prefetch \
         fig5_exclusion fig6_amb fig7_amb_hit_components \
         table1_victim_rates; do
    args=()
    case $b in
        fig[3-7]_* | table1_*) args=(--jobs 4) ;;
    esac
    if ! (cd "$obs_tmp/tables" && "$repo_root/build/bench/$b" "${args[@]}") \
             > "$obs_tmp/tables/$b.out" ||
       ! diff "bench/baselines/tables/$b.txt" "$obs_tmp/tables/$b.out"; then
        echo "FAIL: $b no longer prints bench/baselines/tables/$b.txt" >&2
        exit 1
    fi
done
# Figure 2's full-tag row is Figure 1's 16KB-DM configuration pooled
# over the same suite, so both must print the same conf% and cap%.
fig1_dm=$(awk '$1 == "ALL" { print $3, $4 }' "$obs_tmp/tables/fig1_accuracy.out")
fig2_full=$(awk '$1 == "full" { print $2, $3 }' "$obs_tmp/tables/fig2_tag_bits.out")
if [ -z "$fig1_dm" ] || [ "$fig1_dm" != "$fig2_full" ]; then
    echo "FAIL: fig2 full-tag row '$fig2_full' differs from fig1's" \
         "16KB-DM pooled row '$fig1_dm'" >&2
    exit 1
fi

step "examples (each examples/ program runs and exits 0)"
# The examples build in tier-1; running them keeps them working.
# trace_roundtrip writes its trace into the scratch directory.
mkdir -p "$obs_tmp/examples"
for e in quickstart classify_workload victim_filter_tuning amb_explorer \
         trace_roundtrip coschedule_advisor paper_tour; do
    args=()
    if [ "$e" = trace_roundtrip ]; then
        args=(compress "$obs_tmp/examples/roundtrip.trace")
    fi
    if ! (cd "$obs_tmp/examples" &&
          "$repo_root/build/examples/$e" "${args[@]}") > /dev/null; then
        echo "FAIL: example $e exited nonzero" >&2
        exit 1
    fi
done

step "perf smoke (perfbench/run.py classify-trace, per-layer pass)"
# One short digest-checked run of the benchmark: it builds into
# .bench_build/, and its last stdout line is the JSON result.  A
# document that differs from perfbench/digests.json is a failed
# operation, and a layer metric that was not measured makes run.py
# fail outright.
if command -v python3 >/dev/null 2>&1; then
    python3 perfbench/run.py --workload classify-trace --seconds 2 \
        --trace 1 > "$obs_tmp/perf.out"
    grep '^operations:' "$obs_tmp/perf.out"
    if ! tail -n 1 "$obs_tmp/perf.out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
'; then
        echo "FAIL: perfbench result is not correct:" >&2
        tail -n 1 "$obs_tmp/perf.out" >&2
        exit 1
    fi
else
    skip "perf smoke" "python3 not installed"
fi

step "serve smoke (ccm-serve + concurrent producers + drain)"
serve_sock="$obs_tmp/ing.sock"
serve_ctl="$obs_tmp/ctl.sock"
build/tools/ccm-serve --socket "$serve_sock" --control "$serve_ctl" \
    --stats-out "$obs_tmp/serve_final.json" &
serve_pid=$!
for _ in $(seq 50); do
    if build/tools/ccm-stream --control "$serve_ctl" --cmd ping \
        > /dev/null 2>&1; then
        break
    fi
    sleep 0.1
done

build/tools/ccm-stream --socket "$serve_sock" --name clean-1 \
    --workload tomcatv --refs 20000 &
producer1=$!
build/tools/ccm-stream --socket "$serve_sock" --name clean-2 \
    --workload gcc --refs 20000 --frames-out "$obs_tmp/clean2.ccmf" &
producer2=$!
# Wire corruption past the defect budget: the daemon cuts this
# connection mid-stream, so the producer is allowed to fail.
build/tools/ccm-stream --socket "$serve_sock" --name corrupt-1 \
    --workload swim --refs 20000 --corrupt-after 5000 || true
wait "$producer1" "$producer2"

# The live stats document must validate once all three streams have
# retired: two served to completion, the corrupted one failed.
for _ in $(seq 100); do
    build/tools/ccm-stream --control "$serve_ctl" --cmd stats \
        > "$obs_tmp/serve_live.json"
    if grep -q '"streams_active": 0' "$obs_tmp/serve_live.json" &&
        grep -q '"streams_total": 3' "$obs_tmp/serve_live.json"; then
        break
    fi
    sleep 0.1
done
build/tools/ccm-report --check "$obs_tmp/serve_live.json"
grep -q '"streams_done": 2' "$obs_tmp/serve_live.json"
grep -q '"streams_failed": 1' "$obs_tmp/serve_live.json"

# Telemetry plane, scraped live from the same daemon: Prometheus
# text, the kind:"metrics" JSON document, and a ccm-top snapshot.
build/tools/ccm-stream --control "$serve_ctl" --cmd metrics \
    > "$obs_tmp/serve_metrics.txt"
grep -q '^ccm_serve_streams_admitted_total 3' \
    "$obs_tmp/serve_metrics.txt"
grep -q '^# TYPE ccm_serve_batch_classify_us histogram' \
    "$obs_tmp/serve_metrics.txt"
build/tools/ccm-stream --control "$serve_ctl" --cmd 'metrics json' \
    > "$obs_tmp/serve_metrics.json"
build/tools/ccm-report --check "$obs_tmp/serve_metrics.json"
build/tools/ccm-report "$obs_tmp/serve_metrics.json" > /dev/null
build/tools/ccm-top --control "$serve_ctl" --once \
    > "$obs_tmp/serve_top.txt"
grep -q '^records_total ' "$obs_tmp/serve_top.txt"
grep -q '^config_generation 1' "$obs_tmp/serve_top.txt"
# The sampling instruments are pre-registered at startup, so the
# scrape and the dashboard must carry them even before any MRC pass.
grep -q '^ccm_sample_lines_sampled_total 0' \
    "$obs_tmp/serve_metrics.txt"
grep -q '^sample_lines_total 0' "$obs_tmp/serve_top.txt"
grep -q '^sample_rate_ppm 0' "$obs_tmp/serve_top.txt"

# Fault isolation, byte for byte: the clean streams' mem sections
# must equal a batch ccm-sim run of the same trace exactly.
build/tools/ccm-sim --workload tomcatv --refs 20000 \
    --stats-json "$obs_tmp/serve_batch.json" > /dev/null
build/tools/ccm-report --check "$obs_tmp/serve_batch.json"
build/tools/ccm-report --flat "$obs_tmp/serve_live.json" \
    > "$obs_tmp/serve_flat.txt"
idx=$(awk '$2 == "clean-1" && $1 ~ /^streams\.[0-9]+\.name$/ \
        {split($1, a, "."); print a[2]; exit}' \
    "$obs_tmp/serve_flat.txt")
test -n "$idx"
grep "^streams\.$idx\.mem\." "$obs_tmp/serve_flat.txt" |
    sed "s/^streams\.$idx\.//" | sort > "$obs_tmp/served_mem.txt"
build/tools/ccm-report --flat "$obs_tmp/serve_batch.json" |
    grep '^mem\.' | sort > "$obs_tmp/batch_mem.txt"
diff "$obs_tmp/served_mem.txt" "$obs_tmp/batch_mem.txt"

# The offline frame checker: clean-2's capture is a clean stream,
# and one changed payload byte (record 2's type byte, 0..2 on the
# wire, set to 0x5a) is a checksum mismatch (exit 15).
expect_rc 0 build/tools/tracecheck frames "$obs_tmp/clean2.ccmf"
cp "$obs_tmp/clean2.ccmf" "$obs_tmp/flipped.ccmf"
printf '\x5a' | dd of="$obs_tmp/flipped.ccmf" bs=1 seek=100 \
    conv=notrunc status=none
expect_rc 15 build/tools/tracecheck frames "$obs_tmp/flipped.ccmf"

# Graceful drain: SIGTERM must exit 0 and leave a valid final doc.
kill -TERM "$serve_pid"
wait "$serve_pid"
build/tools/ccm-report --check "$obs_tmp/serve_final.json"

# Control-socket drain: the `drain` command alone must end an idle
# daemon (exit 0 within 1 s) and leave a valid final document.
serve2_ctl="$obs_tmp/ctl2.sock"
build/tools/ccm-serve --socket "$obs_tmp/ing2.sock" \
    --control "$serve2_ctl" \
    --stats-out "$obs_tmp/serve_drained.json" > /dev/null &
serve2_pid=$!
for _ in $(seq 50); do
    if build/tools/ccm-stream --control "$serve2_ctl" --cmd ping \
        > /dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
build/tools/ccm-stream --control "$serve2_ctl" --cmd drain > /dev/null
for _ in $(seq 10); do
    kill -0 "$serve2_pid" 2> /dev/null || break
    sleep 0.1
done
if kill -0 "$serve2_pid" 2> /dev/null; then
    echo "FAIL: ccm-serve still running 1 s after a control drain" >&2
    kill -TERM "$serve2_pid"
    exit 1
fi
wait "$serve2_pid"
build/tools/ccm-report --check "$obs_tmp/serve_drained.json"

step "telemetry smoke (span tracing + overhead budget)"
# Spans on must not change a single byte of the stats document (the
# seq.json reference was produced without tracing above).
build/tools/ccm-sim --suite --refs 5000 --arch victim --jobs 1 \
    --interval 1000 --trace-spans "$obs_tmp/spans.json" \
    --stats-json "$obs_tmp/traced.json" > /dev/null
diff <(grep -v -e wall_seconds -e records_per_sec "$obs_tmp/seq.json") \
     <(grep -v -e wall_seconds -e records_per_sec "$obs_tmp/traced.json")
build/tools/ccm-report --check "$obs_tmp/traced.json"
test -s "$obs_tmp/spans.json"
grep -q '"traceEvents"' "$obs_tmp/spans.json"
grep -q '"ph": "X"' "$obs_tmp/spans.json"
# A classify run's span is named after the trace it opened.
build/tools/ccm-sim --classify --trace "$obs_tmp/gcc.bin" \
    --trace-spans "$obs_tmp/classify_spans.json" > /dev/null
grep -q "\"classify:$obs_tmp/gcc.bin\"" "$obs_tmp/classify_spans.json"

# The enforced < 2% classify hot-path budget: the bench exits 1 on a
# breach, and the JSON record must land for baseline diffing.
CCM_BENCH_JSON_DIR="$obs_tmp" build/bench/telemetry_overhead
test -s "$obs_tmp/BENCH_telemetry.json"
build/tools/ccm-report --check "$obs_tmp/BENCH_telemetry.json"

step "all green"
if [ ${#skipped_steps[@]} -gt 0 ]; then
    echo "ci: NOTE — ${#skipped_steps[@]} step(s) skipped on this" \
         "toolchain:"
    for s in "${skipped_steps[@]}"; do
        echo "ci:   - $s"
    done
else
    echo "ci: no steps skipped"
fi
