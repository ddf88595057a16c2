/**
 * @file
 * Regression-corpus replay — the second half of the paper's bug-study
 * workflow: fuzzing *discovers* defects, the corpus *re-checks* every
 * known defect on each run.
 *
 * `replayCorpus` loads a `--report-dir` corpus (corpus/corpus.h),
 * parses every repro (corpus/parser.h) and re-runs it through the one
 * oracle of its kind — the one the reducer re-checks with
 * (reduce::rerunRepro): the difftest trio for graph repros, the TIR
 * and graph-pass sequence oracles of fuzz/pass_fuzzer.h for the two
 * pass-sequence kinds. One rule classifies every kind, keyed by the
 * recorded fingerprint (reduce::fingerprintKey; never the editable
 * defects line):
 *
 *  - **still-fires**: a re-derived record carries the recorded
 *    fingerprint — the bug is still present (the expected state for a
 *    regression suite seeded from the same code).
 *  - **changed**: the re-run yields other records, or an export or
 *    import-stage crash masks a graph-pass repro's pass stage; the
 *    detail lists their sorted fingerprints — a flaky or shifted
 *    defect worth triage.
 *  - **fixed**: the re-run yields nothing — the bug no longer
 *    reproduces.
 *  - **parse-error**: the repro file or index row is malformed; the
 *    structured message lands in the outcome's detail.
 *
 * Campaign drivers run replay *before* fresh fuzzing when
 * `CampaignConfig::corpusDir` is set (bench flag `--corpus`), write
 * `regressions.tsv` next to the reports, and keep replay's oracle
 * runs out of coverage accounting — so replay is deterministic and
 * byte-identical for any shard count, like minimization.
 */
#ifndef NNSMITH_CORPUS_REPLAY_H
#define NNSMITH_CORPUS_REPLAY_H

#include "backends/backend.h"
#include "corpus/corpus.h"

namespace nnsmith::corpus {

/** Replay verdict for one corpus entry. */
enum class ReplayStatus {
    kStillFires,
    kChanged,
    kFixed,
    kParseError,
};

/** Stable spelling used in regressions.tsv ("still-fires", ...). */
std::string replayStatusName(ReplayStatus status);

/** One corpus entry's replay verdict. */
struct ReplayOutcome {
    std::string fingerprint;
    std::string file;
    std::string kind;
    ReplayStatus status = ReplayStatus::kFixed;
    /** changed: the observed fingerprints; parse-error: the message. */
    std::string detail;
};

/** Everything a corpus replay produces. */
struct ReplayResult {
    std::vector<ReplayOutcome> outcomes; ///< index (fingerprint) order
    size_t stillFires = 0;
    size_t changed = 0;
    size_t fixed = 0;
    size_t parseErrors = 0;

    size_t total() const { return outcomes.size(); }
};

/**
 * Re-run one parsed repro and classify it. Graph repros run the
 * difftest oracle over @p backends; sequence repros need none (TIR
 * sequences use the interpreter, graph sequences construct their
 * owning backend by name). Deterministic, and leaves no trigger-trace
 * residue.
 */
ReplayOutcome replayRepro(const fuzz::BugRecord& bug,
                          const std::vector<backends::Backend*>& backends);

/**
 * Load `dir`'s index, parse and replay every entry. Per-file parse
 * failures become kParseError outcomes; a missing or malformed
 * index.tsv throws ParseError. Outcomes keep index order, so the
 * result — like the corpus itself — is byte-stable across runs and
 * shard counts.
 */
ReplayResult replayCorpus(const std::string& dir,
                          const std::vector<backends::Backend*>& backends);

/** regressions.tsv text: header + one row per outcome. */
std::string renderRegressions(const ReplayResult& result);

/** Write renderRegressions to `dir`/regressions.tsv. */
void writeRegressions(const std::string& dir, const ReplayResult& result);

} // namespace nnsmith::corpus

#endif // NNSMITH_CORPUS_REPLAY_H
