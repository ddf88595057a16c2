/**
 * @file
 * Defect reduction: ddmin over computation graphs and pass sequences,
 * keyed by defect-trace fingerprints (paper §5.4's "turn a flagged
 * iteration into an actionable repro" workflow).
 *
 * A bug record's one repro slot (fuzz::Repro: a graph case, a TIR
 * sequence or a graph-pass sequence) selects the engine; minimizeBugs
 * is the entry point and keys its per-case state on the shared repro
 * pointer. Two engines share the ddmin core (reduce/ddmin.h):
 *
 *  - **GraphReducer** delta-debugs a flagged Graph by removing op
 *    nodes (candidate kept-sets are closed over producers so the
 *    subgraph stays well-formed), rebuilds every candidate through
 *    fuzz::rebuildGraph (fuzz/fuzzer.h, the rebuild corpus-guided
 *    mutation also uses) with an empty spec, re-validates it via
 *    graph/validate, and re-runs the difftest oracle to check that the
 *    *same* defect-trace fingerprint still fires.
 *
 *  - **PassSequenceReducer** ddmins a flagged pass list to the minimal
 *    failing subsequence: TIR sequences and graph-level sequences
 *    (OrtLite/TrtLite, backends/graph_pass.h) alike, each under the
 *    one oracle of its kind that the pass-sequence fuzzer flags with
 *    (fuzz/pass_fuzzer.h). The fixed part of the oracle — the TIR
 *    reference interpretation, or the export and kO0 reference run —
 *    is prepared once per repro and candidate queries are memoized.
 *
 * Every re-check — a ddmin candidate, reproStillFires, corpus replay
 * (corpus/replay.h) — follows one rule: re-run the repro through the
 * oracle of its kind (rerunRepro), re-derive the bug records the
 * flagging fuzzer would report, and look for one carrying the target's
 * canonical fingerprint (findFingerprint).
 *
 * A **fingerprint** pins down what must keep firing while the repro
 * shrinks: for crashes it is (backend, kind, crash kind) — the crash
 * kind *is* the seeded defect id; for wrong results it is the sorted
 * set of semantic defects attributable to the flagged backend (its own
 * system's plus the exporter's, whose corrupted metadata every backend
 * mis-executes). The campaign layer rekeys bug dedup by the minimized
 * fingerprint, which collapses reports that differ only in trigger
 * order or in unrelated co-triggered defects. Everything here is
 * deterministic — pure functions of the repro — so sharded campaigns
 * that minimize inside workers stay byte-identical for any shard
 * count. See DESIGN.md "Reduction & reporting".
 */
#ifndef NNSMITH_REDUCE_REDUCER_H
#define NNSMITH_REDUCE_REDUCER_H

#include "fuzz/fuzzer.h"
#include "reduce/ddmin.h"

namespace nnsmith::reduce {

/** Knobs shared by both engines. */
struct ReduceOptions {
    /** Oracle-evaluation cap per bug (deterministic cut; a graph
     *  oracle run is one export + compile + compare). */
    size_t maxOracleRuns = 256;
};

/**
 * Canonical fingerprint key of a bug observation — the minimized dedup
 * key. Crashes keep their (backend, kind, crash-kind) identity;
 * sequence records their backend|wrong|defect key; raw graph
 * wrong-results are keyed by the sorted set of semantic defects
 * relevant to the flagged backend instead of the raw trigger trace. A
 * minimized record's dedup key already is its fingerprint, so the
 * (editable) defects line never overrides it.
 */
std::string fingerprintKey(const fuzz::BugRecord& bug);

/**
 * Third field of a "backend|tag|kind" dedup key — the crash kind for
 * crash/export-crash records; empty when the key has fewer than three
 * fields. The single parser of the dedup-key wire format, shared with
 * the corpus parser (corpus/parser.h).
 */
std::string crashKindOfKey(const std::string& dedup_key);

/**
 * The one fingerprint rule: the first of @p records whose
 * fingerprintKey is @p fingerprint, or nullptr when the target did not
 * fire.
 */
const fuzz::BugRecord*
findFingerprint(const std::vector<fuzz::BugRecord>& records,
                const std::string& fingerprint);

/** What re-running a repro through the oracle of its kind observed. */
struct ReproRun {
    /** The records the flagging fuzzer would derive from the re-run. */
    std::vector<fuzz::BugRecord> records;
    /** Graph-pass sequence repros only: the fingerprint of the export
     *  or import-stage crash that masks the pass stage (records is
     *  then empty); empty otherwise. */
    std::string masked;
};

/**
 * Re-run @p bug's repro through the oracle of its kind: the difftest
 * trio over @p backends for graph repros, fuzz::TirSequenceOracle for
 * TIR sequences, fuzz::GraphSequenceOracle on a fresh instance of the
 * owning backend for graph-pass sequences. Deterministic, and leaves
 * no trigger-trace residue. No records when the bug carries no repro.
 */
ReproRun rerunRepro(const fuzz::BugRecord& bug,
                    const std::vector<backends::Backend*>& backends);

/**
 * Minimize an iteration outcome's bug records in place: ddmin each
 * record's repro (graph or pass sequence), replace the repro with a
 * fresh minimized one, fill originalSize/minimizedSize/
 * minimizedDefects (the minimized repro's own trigger trace; `defects`
 * keeps the discovery-time one), and rewrite dedupKey to
 * fingerprintKey. A record is left untouched when it carries no repro
 * or its full repro does not reproduce its fingerprint. Records that
 * share a graph repro share its full-case run and candidate cache.
 * @p backends is the list the flagged case ran against (graph bugs
 * re-run the oracle on it; sequence bugs need none).
 */
void minimizeBugs(std::vector<fuzz::BugRecord>& bugs,
                  const std::vector<backends::Backend*>& backends,
                  const ReduceOptions& options = ReduceOptions());

/** minimizeBugs on the one record @p bug; true when it was minimized
 *  (its repro replaced). */
bool minimizeBug(fuzz::BugRecord& bug,
                 const std::vector<backends::Backend*>& backends,
                 const ReduceOptions& options = ReduceOptions());

/**
 * Does a (minimized) bug's repro still fire its fingerprint? rerunRepro
 * + findFingerprint(records, fingerprintKey(bug)); a masked case does
 * not fire. The acceptance probe used by tests and bench_reduce. True
 * also for untouched records whose repro fires.
 */
bool reproStillFires(const fuzz::BugRecord& bug,
                     const std::vector<backends::Backend*>& backends);

} // namespace nnsmith::reduce

#endif // NNSMITH_REDUCE_REDUCER_H
