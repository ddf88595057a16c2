#!/usr/bin/env bash
# Tier-1 verification + strict-warnings build + sanitizer build.
#
#   scripts/check.sh            # docs check + build + ctest, then strict build
#   scripts/check.sh --fast     # skip the strict build
#   scripts/check.sh --sanitize # the ASan+UBSan build + ctest (own CI job)
#   scripts/check.sh --tsan     # ThreadSanitizer over the campaign fabric
#                               # tests on a z3-less build (own CI job)
#
# CI (.github/workflows/ci.yml) runs exactly this script, so CI failures
# reproduce locally by construction.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

run_sanitize() {
    echo "== sanitize: ASan + UBSan =="
    cmake -B build-sanitize -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
    cmake --build build-sanitize -j "$JOBS"
    ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"
}

# libz3 is not TSan-instrumented and reports false lock errors, so this
# build leaves z3 out. It runs only the fabric's tests: the full suite
# on a z3-less build stalls in graph_pass_test (ROADMAP item 7(a)).
run_tsan() {
    echo "== tsan: ThreadSanitizer over the campaign fabric =="
    local tests=(parallel_campaign_test fabric_test obs_test)
    cmake -B build-tsan -S . -DNNSMITH_WITH_Z3=OFF \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread"
    cmake --build build-tsan -j "$JOBS" --target "${tests[@]}"
    local log=build-tsan/tsan.log
    : > "$log"
    for test in "${tests[@]}"; do
        (cd build-tsan && "./$test") 2>&1 | tee -a "$log"
    done
    if grep -q "WARNING: ThreadSanitizer" "$log"; then
        echo "check.sh: ThreadSanitizer reported a race; see $log"
        exit 1
    fi
}

if [[ "${1:-}" == "--sanitize" ]]; then
    run_sanitize
    echo "== check.sh: sanitize green =="
    exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
    run_tsan
    echo "== check.sh: tsan green =="
    exit 0
fi

echo "== docs: README fig→driver table vs bench/ targets =="
scripts/check_docs.sh

echo "== tier-1: configure + build =="
cmake -B build -S .
cmake --build build -j "$JOBS"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== minimization smoke: tiny --minimize campaign writes repro reports =="
# Exits nonzero unless every flagged graph, TIR-sequence and graph-pass
# sequence repro is minimized and re-fires its fingerprint.
rm -rf build/repro-smoke
./build/bench/bench_reduce --iters 60 --report-dir build/repro-smoke \
    --out build/BENCH_reduce_smoke.json
if ! ls build/repro-smoke/*.repro.txt >/dev/null 2>&1; then
    echo "check.sh: --report-dir produced no .repro.txt report"
    exit 1
fi
test -s build/repro-smoke/index.tsv

echo "== identity probe: every axis of the merge contract =="
# One minimizing, corpus-replaying, value-searching campaign across
# {thread, process} x shards {1, 2, 4}, then the same matrix with
# telemetry on (held to the telemetry-off reference), with batch 4
# and the batched sweep on/off, and with corpus-guided mutation.
# Exits nonzero unless every cell renders byte-identically
# (fuzz::renderCampaignResult + report tree), each section found bugs,
# wrote index.tsv and replayed its corpus, cases/sec at --batch 16 is
# >= 1.5x --batch 1, and guided campaigns reach at least the
# baseline's pass bins and deduped bugs. Only the telemetry section
# runs with telemetry on, so the trace/metrics files it writes are the
# smoke source for the validation below.
rm -f build/trace-smoke.jsonl build/metrics-smoke.json
./build/bench/bench_identity --iters 60 \
    --out build/BENCH_identity_smoke.json \
    --trace-out build/trace-smoke.jsonl --metrics-out build/metrics-smoke.json

echo "== telemetry output: emitted trace/metrics files are valid =="
scripts/check_docs.sh --validate-telemetry \
    build/trace-smoke.jsonl build/metrics-smoke.json

echo "== tzer probe: fig8 prints the same in thread and process workers =="
# Tzer keeps a corpus across iterations and runs as one in-order shard;
# both worker modes must deliver its iterations in order.
./build/bench/fig8_tzer_venn --iters 20 --worker-mode thread \
    > build/fig8-thread.txt
./build/bench/fig8_tzer_venn --iters 20 --worker-mode process \
    > build/fig8-process.txt
cmp build/fig8-thread.txt build/fig8-process.txt

echo "== pass fuzz probe: sequence bins grow, shards merge identically =="
./build/bench/bench_pass_fuzz --iters 200 --out build/BENCH_pass_fuzz_smoke.json

echo "== pass venn probe: three-backend pass fuzzing, shards {1,2,4} =="
# Exits nonzero unless every backend's sequence bins are nonempty, the
# three-way Venn center is nonempty, and all shard counts merge
# byte-identically.
./build/bench/bench_pass_venn --iters 60 --out build/BENCH_pass_venn_smoke.json

echo "== corpus replay probe: re-check the emitted repros =="
# Replaying a corpus just emitted by the same binary must re-fire every
# fingerprint; bench_corpus --corpus exits nonzero unless all outcomes
# classify still-fires (a 'fixed' here means replay failed to re-fire a
# known bug, not that anything was fixed).
./build/bench/bench_corpus --corpus build/repro-smoke

echo "== corpus probe: every repro kind emits, round-trips and replays =="
# Full mode: graph, TIR sequence and graph-pass sequence corpora from
# minimizing campaigns; exits nonzero unless every repro round-trips
# byte-identically and replays still-fires, and regressions.tsv is
# identical across shards {1,2,4}.
./build/bench/bench_corpus --iters 60 --out build/BENCH_corpus_smoke.json

echo "== bench output: every --out file above is valid JSON =="
scripts/check_docs.sh --validate-json build/BENCH_reduce_smoke.json \
    build/BENCH_pass_fuzz_smoke.json build/BENCH_pass_venn_smoke.json \
    build/BENCH_identity_smoke.json build/BENCH_corpus_smoke.json

if [[ "${1:-}" != "--fast" ]]; then
    echo "== strict: -Wall -Wextra -Werror =="
    cmake -B build-strict -S . -DNNSMITH_STRICT=ON
    cmake --build build-strict -j "$JOBS"
    ctest --test-dir build-strict --output-on-failure -j "$JOBS"
fi

echo "== check.sh: all green =="
