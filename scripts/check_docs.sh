#!/usr/bin/env bash
# Docs-consistency check: README.md's fig→driver table must stay in
# sync with the actual bench/ target list, in both directions, so the
# table cannot silently rot as drivers are added or renamed.
#
# Run standalone or via scripts/check.sh / CI.
#
# It also parses every committed BENCH_*.json record as JSON.
#
# Second mode:
#   scripts/check_docs.sh --validate-telemetry TRACE.jsonl METRICS.json
# validates files emitted by --trace-out / --metrics-out: every trace
# line must be a standalone JSON object with the chrome-trace
# complete-span fields, and the metrics snapshot must be a JSON object
# with counters/gauges/histograms maps.
#
# Third mode:
#   scripts/check_docs.sh --validate-json FILE...
# parses each FILE (a bench driver's --out output) as one JSON document.
set -euo pipefail

cd "$(dirname "$0")/.."

validate_json() {
    python3 - "$@" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        json.load(f)  # raises on malformed output
print(f"check_docs: {len(sys.argv) - 1} JSON files parse")
EOF
}

if [[ "${1:-}" == "--validate-json" ]]; then
    shift
    validate_json "$@"
    exit 0
fi

if [[ "${1:-}" == "--validate-telemetry" ]]; then
    trace="${2:?usage: check_docs.sh --validate-telemetry TRACE METRICS}"
    metrics="${3:?usage: check_docs.sh --validate-telemetry TRACE METRICS}"
    python3 - "$trace" "$metrics" <<'EOF'
import json, sys
trace, metrics = sys.argv[1], sys.argv[2]
lines = 0
with open(trace) as f:
    for n, line in enumerate(f, 1):
        event = json.loads(line)  # raises on malformed output
        for field in ("name", "ph", "ts", "dur", "pid", "tid"):
            assert field in event, f"{trace}:{n}: missing {field!r}"
        assert event["ph"] == "X", f"{trace}:{n}: ph != 'X'"
        lines += 1
assert lines > 0, f"{trace}: no trace events emitted"
with open(metrics) as f:
    snapshot = json.load(f)
for section in ("counters", "gauges", "histograms"):
    assert isinstance(snapshot.get(section), dict), \
        f"{metrics}: missing {section!r} object"
assert snapshot["counters"].get("campaign.iterations", 0) > 0, \
    f"{metrics}: campaign.iterations not recorded"
print(f"check_docs: telemetry valid ({lines} trace events, "
      f"{len(snapshot['counters'])} counters)")
EOF
    exit 0
fi

fail=0

# Every bench driver must appear (as `driver`) in README's table.
for src in bench/*.cpp; do
    name="$(basename "$src" .cpp)"
    [[ "$name" == "bench_util" ]] && continue # shared header-style plumbing
    if ! grep -q "^| \`$name\`" README.md; then
        echo "check_docs: README.md fig→driver table is missing bench driver '$name'"
        fail=1
    fi
done

# Every driver the README's table names must exist in bench/.
while IFS= read -r name; do
    if [[ ! -f "bench/$name.cpp" ]]; then
        echo "check_docs: README.md names nonexistent bench driver '$name'"
        fail=1
    fi
done < <(grep -oE '^\| `[A-Za-z0-9_]+`' README.md | sed -e 's/^| `//' -e 's/`$//')

# Every committed BENCH_*.json record must be referenced from README.md
# (and every record README names must exist) so the committed baselines
# cannot silently rot either.
for record in BENCH_*.json; do
    if ! grep -q "$record" README.md; then
        echo "check_docs: README.md does not mention committed record '$record'"
        fail=1
    fi
done
while IFS= read -r record; do
    if [[ ! -f "$record" ]]; then
        echo "check_docs: README.md names nonexistent record '$record'"
        fail=1
    fi
done < <(grep -oE 'BENCH_[A-Za-z0-9_]+\.json' README.md | sort -u)

# Every committed record must parse: nothing else reads them as JSON.
if ! validate_json BENCH_*.json; then
    echo "check_docs: a committed BENCH_*.json record is not valid JSON"
    fail=1
fi

# The recorded scaling numbers are only meaningful relative to the
# core count they were measured on: README's "Sharded campaigns"
# section must state the hardware_threads value actually recorded in
# BENCH_identity.json.
threads="$(grep -oE '"hardware_threads": [0-9]+' BENCH_identity.json \
    | grep -oE '[0-9]+')"
if ! grep -q "hardware_threads=$threads" README.md; then
    echo "check_docs: README.md does not state hardware_threads=$threads (the value recorded in BENCH_identity.json)"
    fail=1
fi

# The campaign fabric's process workers must stay documented: the flag
# docs and quickstart reference `--worker-mode process`.
if ! grep -q -- '--worker-mode process' README.md; then
    echo "check_docs: README.md does not document '--worker-mode process'"
    fail=1
fi

# Corpus-guided generation ships with its flag documented in both the
# README flag list and the DESIGN.md section that explains it.
if ! grep -q -- '--corpus-guided' README.md; then
    echo "check_docs: README.md does not document '--corpus-guided'"
    fail=1
fi
if ! grep -q '^## Corpus-guided generation' DESIGN.md; then
    echo "check_docs: DESIGN.md is missing the 'Corpus-guided generation' section"
    fail=1
fi

# Batched case execution ships documented: the --batch flag in README
# and the section in DESIGN.md that states what batching amortizes.
if ! grep -q -- '--batch' README.md; then
    echo "check_docs: README.md does not document '--batch'"
    fail=1
fi
if ! grep -q '^## Batched execution' DESIGN.md; then
    echo "check_docs: DESIGN.md is missing the 'Batched execution' section"
    fail=1
fi

# The telemetry subsystem ships documented: README must list all three
# flags and DESIGN.md must carry the inertness contract.
for flag in '--trace-out' '--metrics-out' '--progress'; do
    if ! grep -q -- "$flag" README.md; then
        echo "check_docs: README.md does not document '$flag'"
        fail=1
    fi
done
if ! grep -q '^## Telemetry' DESIGN.md; then
    echo "check_docs: DESIGN.md is missing the 'Telemetry' section"
    fail=1
fi

if [[ "$fail" == 0 ]]; then
    echo "check_docs: README fig→driver table, BENCH_*.json records and campaign-fabric docs consistent"
fi
exit "$fail"
