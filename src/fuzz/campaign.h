/**
 * @file
 * What a campaign is and what it produces: the budget, caps and
 * options one fuzzer runs under against a set of backends, and the
 * result — coverage time series (Figs. 4-6), final coverage sets
 * (Figs. 7, 8, 10), instance-diversity keys (Fig. 9) and deduplicated
 * bug records (Table 3, §5.4). Campaigns run on the campaign fabric
 * (fuzz/parallel_campaign.h), the one campaign driver.
 */
#ifndef NNSMITH_FUZZ_CAMPAIGN_H
#define NNSMITH_FUZZ_CAMPAIGN_H

#include <map>
#include <set>

#include "corpus/replay.h"
#include "coverage/coverage.h"
#include "fuzz/fuzzer.h"
#include "support/vclock.h"

namespace nnsmith::fuzz {

/** Campaign parameters. */
struct CampaignConfig {
    /** Virtual budget; the paper runs 4 hours (240 minutes). */
    VirtualMs virtualBudget = 240ll * 60 * 1000;

    /** Real-iteration safety cap (coverage saturates well before). */
    size_t maxIterations = 4000;

    /** Component prefix whose coverage is the campaign's metric,
     *  e.g. "ortlite" or "tvmlite". */
    std::string coverageComponent;

    /** Sample the coverage series every this many virtual minutes. */
    int sampleEveryMinutes = 5;

    /**
     * Delta-debug every flagged case before dedup (reduce/reducer.h):
     * each bug's repro is ddmin-minimized while its defect-trace
     * fingerprint is held fixed, and the dedup key becomes the
     * minimized fingerprint, collapsing reports that differ only in
     * trigger order or unrelated co-triggered defects. Off by default
     * so existing campaign records stay comparable. Minimization
     * re-runs the oracle outside coverage collection, so coverage
     * results are unchanged, and it is deterministic per iteration, so
     * sharded campaigns stay byte-identical for any shard count.
     */
    bool minimize = false;

    /** When non-empty, write one minimized-repro report per deduped
     *  bug into this directory at campaign end (reduce/report.h). */
    std::string reportDir;

    /**
     * When non-empty, replay this regression corpus (a `--report-dir`
     * tree, see corpus/replay.h) *before* fresh fuzzing: every known
     * fingerprint is re-checked against the live oracle and classified
     * still-fires / changed / fixed, results land in the result's
     * `regressions` and in `regressions.tsv` next to the reports.
     * Replay's oracle runs are kept out of coverage accounting, so
     * `--corpus` never changes the campaign's coverage or bug map and
     * composes with any shard count.
     */
    std::string corpusDir;

    /**
     * Corpus-guided generation (fuzz/mutator.h): requires corpusDir.
     * The sharded runner parses the corpus once into an immutable
     * mutation pool (before any worker starts) and wraps each derived
     * per-iteration fuzzer in a CorpusGuidedFuzzer, so every iteration
     * chooses — from its own iteration seed, never shared state —
     * between fresh sampling and mutating a corpus entry. Composes
     * with minimize/reportDir/any worker mode, preserving the
     * byte-identical merge guarantee. Leave it off for a stateful
     * fuzzer (baselines::tzerFactory): an iteration the wrapper
     * diverts never reaches the shared fuzzer, whose in-order check
     * then fails.
     */
    bool corpusGuided = false;
};

/** One sample of the coverage growth curves. */
struct CampaignPoint {
    double minutes = 0.0;
    size_t iterations = 0;
    size_t coverageAll = 0;
    size_t coveragePass = 0;
};

/**
 * One worker-fabric incident observed during a sharded run
 * (fuzz/worker_runtime.h): a crashed worker process (pipe EOF, the
 * worker was respawned and the round re-run) or an error frame (the
 * worker reported a structured failure instead of a result block).
 * Faults are telemetry — surfaced for post-run inspection, never part
 * of the deterministic merge, so a run that survives its faults still
 * produces the byte-identical campaign result.
 */
struct WorkerFault {
    int shard = 0;
    size_t roundBegin = 0; ///< global iteration range of the round
    size_t roundEnd = 0;
    std::string kind;   ///< "crash" | "error" | "stall"
    std::string detail; ///< error text for kind == "error"
    int attempt = 0;    ///< 0-based retry attempt the fault hit
};

/** Everything a campaign produces. */
struct CampaignResult {
    std::string fuzzer;
    std::vector<CampaignPoint> series;
    coverage::CoverageMap coverAll;   ///< component-filtered
    coverage::CoverageMap coverPass;  ///< pass-only subset
    std::map<std::string, BugRecord> bugs; ///< keyed by dedupKey
    /** Corpus replay verdicts (empty unless corpusDir was set). */
    corpus::ReplayResult regressions;
    std::set<std::string> instanceKeys;
    std::set<std::string> defectsFound; ///< seeded defects observed
    size_t iterations = 0;
    size_t produced = 0;
    VirtualMs virtualTime = 0;  ///< total, including converged plateau
    VirtualMs activeTime = 0;   ///< virtual time actually spent fuzzing

    /**
     * Worker-fabric telemetry (empty for thread workers that never
     * fault). Deliberately left out of renderCampaignResult: two runs
     * that merged the same records are the same campaign even if one
     * needed respawns.
     */
    std::vector<WorkerFault> workerFaults;
    /** Total worker respawns (crash recoveries) during the run. */
    size_t respawns = 0;
};

/**
 * Canonical text of every field of @p result except the telemetry-only
 * workerFaults / respawns: counters, the series, coverage as sorted
 * site keys, instance keys, defects, every bug as its wire document
 * (wire::encodeBug) in dedup-key order, and the regressions table
 * (corpus::renderRegressions). Two campaigns are *identical* when
 * these texts are byte-equal — plus their report trees when a
 * reportDir is set. Graph repros re-run the ONNX export, so the
 * rendering runs under its own CoverageCollector and defect-trace
 * scope: call it with no collector active on the thread.
 */
std::string renderCampaignResult(const CampaignResult& result);

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_CAMPAIGN_H
