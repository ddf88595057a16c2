#include "fuzz/parallel_campaign.h"

#include <algorithm>

#include "corpus/replay.h"
#include "fuzz/mutator.h"
#include "fuzz/wire.h"
#include "fuzz/worker_runtime.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "reduce/report.h"
#include "support/logging.h"

namespace nnsmith::fuzz {

using coverage::CoverageRegistry;

uint64_t
deriveIterationSeed(uint64_t master_seed, uint64_t index)
{
    // SplitMix64 over a golden-ratio stride: adjacent indexes land in
    // statistically independent positions of the stream, and the
    // result depends only on (master_seed, index).
    uint64_t z = master_seed + 0x9E3779B97F4A7C15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

CampaignResult
mergeShardResults(const std::vector<ShardResult>& shards,
                  const CampaignConfig& config,
                  const std::string& fuzzer_name)
{
    // Index the records by global iteration number. Any permutation of
    // the shard vector produces the same table, which is what makes
    // the merge order-independent.
    size_t end = 0;
    for (const auto& shard : shards)
        for (const auto& record : shard.records)
            end = std::max(end, record.index + 1);
    std::vector<const ShardResult::IterationRecord*> by_index(end, nullptr);
    for (const auto& shard : shards) {
        for (const auto& record : shard.records) {
            NNSMITH_ASSERT(by_index[record.index] == nullptr,
                           "duplicate iteration record ", record.index);
            by_index[record.index] = &record;
        }
    }

    // Replay the records in global index order. Records arrive in wire
    // format regardless of the worker mode: hit site keys are
    // interned into *this* process's registry and bug documents parsed
    // back through the corpus machinery, so thread and process shards
    // merge identically.
    auto& registry = CoverageRegistry::instance();
    CampaignResult result;
    result.fuzzer = fuzzer_name;
    VirtualClock clock;
    auto sample = [&](double minutes) {
        result.series.push_back(CampaignPoint{minutes, result.iterations,
                                              result.coverAll.count(),
                                              result.coverPass.count()});
    };
    // Samples past minute 0 are stamped at their nominal bucket
    // boundary so different fuzzers' series align on the x axis.
    double next_sample = config.sampleEveryMinutes;
    auto sample_next = [&] {
        sample(next_sample);
        next_sample += config.sampleEveryMinutes;
    };
    auto add_filtered = [&](coverage::CoverageMap& into,
                            const std::vector<coverage::BranchId>& ids,
                            bool pass_only) {
        const auto kept =
            registry.filterIds(ids, config.coverageComponent, pass_only);
        for (const auto id : kept.branches())
            into.add(id);
    };
    sample(clock.minutes());
    // Speculative records past the budget cutoff are discarded; a
    // missing record means a shard stopped there, so nothing later
    // can count.
    for (size_t index = 0;
         index < end && by_index[index] != nullptr &&
         clock.now() < config.virtualBudget &&
         result.iterations < config.maxIterations;
         ++index) {
        const auto& record = *by_index[index];
        const auto ids = wire::hitsFromWire(record.hits);
        add_filtered(result.coverAll, ids, false);
        add_filtered(result.coverPass, ids, true);
        ++result.iterations;
        result.produced += record.produced ? 1 : 0;
        clock.advance(std::max<VirtualMs>(record.cost, 1));
        for (const auto& encoded : record.bugs) {
            BugRecord bug = wire::decodeBug(encoded);
            for (const auto& defect : bug.defects)
                result.defectsFound.insert(defect);
            result.bugs.emplace(bug.dedupKey, std::move(bug));
        }
        result.instanceKeys.insert(record.instanceKeys.begin(),
                                   record.instanceKeys.end());
        while (clock.minutes() >= next_sample)
            sample_next();
    }
    result.activeTime = clock.now();
    // If the real-iteration cap was hit before the virtual budget,
    // fast-forward the converged plateau: coverage cannot grow without
    // new test cases, so the remaining samples hold the final value
    // (the paper notes curves "generally converge before" 4 hours).
    // Bounded so iteration-capped campaigns with huge budgets stay
    // cheap.
    while (clock.now() < config.virtualBudget &&
           result.series.size() < 4096) {
        clock.advance(
            static_cast<VirtualMs>(config.sampleEveryMinutes) * 60 * 1000);
        sample_next();
    }
    sample(clock.minutes());
    result.virtualTime = clock.now();
    return result;
}

CampaignResult
runParallelCampaign(const ParallelCampaignConfig& config)
{
    NNSMITH_ASSERT(config.shards >= 1, "shards must be >= 1, got ",
                   config.shards);
    NNSMITH_ASSERT(config.blockIterations >= 1,
                   "blockIterations must be >= 1");
    if (!config.fuzzerFactory || !config.backendFactory)
        fatal("runParallelCampaign: fuzzerFactory and backendFactory "
              "must both be set");

    CoverageRegistry::instance().resetHits();

    corpus::ReplayResult regressions;
    if (!config.campaign.corpusDir.empty()) {
        // Replay the regression corpus once, on the coordinator,
        // before any shard fuzzes — the scratch collector captures
        // both backend construction and replay's oracle runs, so the
        // merged campaign result is unchanged by --corpus and stays
        // byte-identical for any shard count.
        obs::PhaseSpan span("replay");
        ShardBackends scratch(config.backendFactory);
        try {
            regressions = corpus::replayCorpus(config.campaign.corpusDir,
                                               scratch.list);
        } catch (const corpus::ParseError& error) {
            // A missing or malformed index is a configuration error
            // (mistyped --corpus), not an internal failure.
            fatal(std::string("runParallelCampaign corpusDir: ") +
                  error.what());
        }
        corpus::writeRegressions(config.campaign.corpusDir, regressions);
    }

    ParallelCampaignConfig effective = config;
    if (config.campaign.corpusGuided) {
        if (config.campaign.corpusDir.empty())
            fatal("runParallelCampaign: corpusGuided requires corpusDir");
        // Parse the corpus once, here on the coordinator (so the
        // immutable pool pre-exists process workers' fork()), and wrap
        // the factory: each derived iteration seed gets its own
        // CorpusGuidedFuzzer over the shared read-only pool, keeping
        // iterations independent and the merge byte-identical.
        auto pool = std::make_shared<const MutationPool>(
            MutationPool::fromCorpusDir(config.campaign.corpusDir));
        const auto inner = config.fuzzerFactory;
        effective.fuzzerFactory = [inner, pool](uint64_t seed) {
            return std::make_unique<CorpusGuidedFuzzer>(inner(seed), pool,
                                                        seed);
        };
    }

    // Telemetry enablement follows the process-global flags even when
    // the driver never wired the config fields: --metrics-out must
    // collect from process workers and --progress must render in every
    // campaign driver, not just those that set them explicitly.
    if (effective.progress == nullptr && obs::progressRequested())
        effective.progress = std::make_shared<obs::ProgressAggregator>();
    const auto progress = effective.progress;

    // Execute the rounds on thread or process shards; the wire-format
    // shard results merge the same either way.
    if (progress != nullptr)
        progress->attach(config.shards, workerModeName(config.workerMode));
    std::vector<ShardResult> results;
    try {
        results = runShards(effective);
    } catch (...) {
        if (progress != nullptr)
            progress->finish(); // unstick the \r line first
        throw;
    }
    if (progress != nullptr)
        progress->finish();

    const auto probe =
        effective.fuzzerFactory(deriveIterationSeed(config.masterSeed, 0));
    CampaignResult merged =
        mergeShardResults(results, config.campaign, probe->name());
    merged.regressions = std::move(regressions);
    // Fault telemetry rides alongside the merge, never through it:
    // workerFaults and respawns describe the run, not the result.
    for (auto& shard : results) {
        for (auto& fault : shard.faults) {
            if (fault.kind == "crash")
                ++merged.respawns;
            merged.workerFaults.push_back(std::move(fault));
        }
    }
    if (!config.campaign.reportDir.empty())
        reduce::writeReproReports(merged.bugs, config.campaign.reportDir);
    return merged;
}

} // namespace nnsmith::fuzz
