/** Tests for the sharded parallel campaign runner: shard-count
 *  invariance, merge order-independence, scheduling determinism,
 *  shard-invariant regression-corpus replay, Tzer as a one-shard
 *  stateful fuzzer, and the canonical rendering. */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "backends/backend.h"
#include "baselines/tzer.h"
#include "corpus/replay.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/pass_fuzzer.h"
#include "fuzz/wire.h"
#include "support/logging.h"

namespace nnsmith {
namespace {

using fuzz::CampaignConfig;
using fuzz::CampaignResult;
using fuzz::ParallelCampaignConfig;
using fuzz::renderCampaignResult;
using fuzz::ShardResult;

ParallelCampaignConfig
testConfig(int shards, uint64_t master_seed)
{
    ParallelCampaignConfig config;
    config.campaign.virtualBudget = 60ll * 60 * 1000; // 60 virtual min
    config.campaign.maxIterations = 48;
    config.campaign.coverageComponent = "ortlite";
    config.campaign.sampleEveryMinutes = 10;
    config.shards = shards;
    config.masterSeed = master_seed;
    config.fuzzerFactory = [](uint64_t seed) {
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 5;
        options.runValueSearch = false;
        return std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
    };
    config.backendFactory = [] {
        std::vector<std::unique_ptr<backends::Backend>> owned;
        owned.push_back(backends::makeOrtLite());
        return owned;
    };
    return config;
}

TEST(ParallelCampaign, ShardCountDoesNotChangeMergedResult)
{
    const auto serial = fuzz::runParallelCampaign(testConfig(1, 2023));
    const auto sharded = fuzz::runParallelCampaign(testConfig(4, 2023));
    EXPECT_GT(serial.iterations, 0u);
    EXPECT_GT(serial.coverAll.count(), 0u);
    EXPECT_EQ(renderCampaignResult(serial), renderCampaignResult(sharded));
}

TEST(ParallelCampaign, RepeatedShardedRunsAreDeterministic)
{
    const auto first = fuzz::runParallelCampaign(testConfig(4, 77));
    const auto second = fuzz::runParallelCampaign(testConfig(4, 77));
    EXPECT_EQ(renderCampaignResult(first), renderCampaignResult(second));
}

TEST(ParallelCampaign, BlockSizeDoesNotChangeMergedResult)
{
    auto small_blocks = testConfig(3, 5);
    small_blocks.blockIterations = 2;
    auto large_blocks = testConfig(3, 5);
    large_blocks.blockIterations = 64;
    EXPECT_EQ(renderCampaignResult(fuzz::runParallelCampaign(small_blocks)),
              renderCampaignResult(fuzz::runParallelCampaign(large_blocks)));
}

TEST(ParallelCampaign, DifferentSeedsDiverge)
{
    const auto a = fuzz::runParallelCampaign(testConfig(2, 1));
    const auto b = fuzz::runParallelCampaign(testConfig(2, 2));
    EXPECT_NE(a.instanceKeys, b.instanceKeys);
}

TEST(ParallelCampaign, MergeIsOrderIndependent)
{
    // Hand-crafted shard results over freshly registered sites so the
    // merge is exercised in isolation from the fuzzing stack.
    auto& registry = coverage::CoverageRegistry::instance();
    std::vector<coverage::BranchId> ids;
    for (int i = 0; i < 6; ++i) {
        ids.push_back(registry.registerSite("mergetest/sub", __FILE__,
                                            __LINE__, i,
                                            /*pass_only=*/i % 2 == 1));
    }

    CampaignConfig config;
    config.virtualBudget = 10ll * 60 * 1000;
    config.maxIterations = 9;
    config.coverageComponent = "mergetest";
    config.sampleEveryMinutes = 2;

    std::vector<ShardResult> shards(3);
    for (int shard = 0; shard < 3; ++shard) {
        shards[static_cast<size_t>(shard)].shard = shard;
        for (size_t index = static_cast<size_t>(shard); index < 9;
             index += 3) {
            ShardResult::IterationRecord record;
            record.index = index;
            record.cost = 30 * 1000; // half a virtual minute each
            record.produced = true;
            record.hits = fuzz::wire::hitsToWire(
                {ids[index % ids.size()]});
            fuzz::BugRecord bug;
            bug.dedupKey = "B|crash|" + std::to_string(index % 4);
            bug.backend = "B";
            bug.kind = "crash";
            record.bugs.push_back(fuzz::wire::encodeBug(bug));
            record.instanceKeys = {"op" + std::to_string(index % 5)};
            shards[static_cast<size_t>(shard)].records.push_back(
                std::move(record));
        }
    }

    const auto forward = mergeShardResults(shards, config, "synthetic");
    std::vector<ShardResult> reversed = {shards[2], shards[0], shards[1]};
    const auto shuffled = mergeShardResults(reversed, config, "synthetic");
    EXPECT_EQ(renderCampaignResult(forward), renderCampaignResult(shuffled));
    EXPECT_EQ(forward.iterations, 9u);
    EXPECT_EQ(forward.coverAll.count(), 6u);
    EXPECT_EQ(forward.coverPass.count(), 3u);
    EXPECT_EQ(forward.bugs.size(), 4u);
    EXPECT_EQ(forward.instanceKeys.size(), 5u);
}

TEST(ParallelCampaign, CollectorRedirectsHitsAwayFromGlobalState)
{
    auto& registry = coverage::CoverageRegistry::instance();
    registry.resetHits();
    const auto id = registry.registerSite("collectortest", __FILE__,
                                          __LINE__, 0, false);
    {
        coverage::CoverageCollector collector;
        registry.hit(id);
        registry.hitDynamic("collectortest", "some-key", false);
        const auto hits = collector.take();
        EXPECT_EQ(hits.size(), 2u); // the static site + the dynamic one
        EXPECT_EQ(hits[0], id);
        registry.hitDynamic("collectortest", "some-key", false);
        EXPECT_EQ(collector.take().size(), 1u);
        EXPECT_EQ(registry.snapshot("collectortest").count(), 0u);
    }
    registry.hit(id);
    EXPECT_EQ(registry.snapshot("collectortest").count(), 1u);
    registry.resetHits();
}

TEST(ParallelCampaign, WorkerExceptionPropagatesWithoutHanging)
{
    auto config = testConfig(4, 11);
    config.fuzzerFactory = [](uint64_t seed) -> std::unique_ptr<fuzz::Fuzzer> {
        if (seed % 3 == 0)
            throw std::runtime_error("factory blew up");
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 5;
        options.runValueSearch = false;
        return std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
    };
    EXPECT_THROW(fuzz::runParallelCampaign(config), std::runtime_error);
}

TEST(ParallelCampaign, PassSequenceFuzzerIsShardInvariant)
{
    // The pass-sequence fuzzer draws program + pass order from its
    // per-iteration seed and keeps no corpus, so it qualifies for the
    // sharded runner: merged results must be byte-identical.
    auto make = [](int shards) {
        ParallelCampaignConfig config;
        config.campaign.virtualBudget = 60ll * 60 * 1000;
        config.campaign.maxIterations = 80;
        config.campaign.coverageComponent = "tvmlite";
        config.campaign.sampleEveryMinutes = 10;
        config.shards = shards;
        config.masterSeed = 2023;
        config.fuzzerFactory = [](uint64_t seed) {
            return std::make_unique<fuzz::PassSequenceFuzzer>(seed);
        };
        config.backendFactory = [] {
            return std::vector<std::unique_ptr<backends::Backend>>{};
        };
        return config;
    };
    const auto serial = fuzz::runParallelCampaign(make(1));
    const auto sharded = fuzz::runParallelCampaign(make(4));
    EXPECT_GT(serial.coverPass.count(), 0u);
    EXPECT_FALSE(serial.instanceKeys.empty()); // tirseq/... keys
    EXPECT_EQ(renderCampaignResult(serial), renderCampaignResult(sharded));
}

TEST(ParallelCampaign, PassFuzzedTvmLiteIsShardInvariant)
{
    // TVMLite in pass-fuzz mode derives each lowered program's pass
    // sequence from the program's structural hash — a pure function
    // of the test case — so randomized sequences cannot break the
    // shard-count identity.
    auto make = [](int shards) {
        auto config = testConfig(shards, 2024);
        config.campaign.coverageComponent = "tvmlite";
        config.backendFactory = [] {
            std::vector<std::unique_ptr<backends::Backend>> owned;
            owned.push_back(
                backends::makeTvmLite(/*pass_fuzz_seed=*/2024));
            return owned;
        };
        return config;
    };
    const auto serial = fuzz::runParallelCampaign(make(1));
    const auto sharded = fuzz::runParallelCampaign(make(3));
    EXPECT_GT(serial.coverAll.count(), 0u);
    EXPECT_EQ(renderCampaignResult(serial), renderCampaignResult(sharded));
}

/** PassSequenceFuzzer in graph mode: the backend under test is its
 *  own oracle (run(kO0) vs runWithPasses). */
ParallelCampaignConfig
graphPassFuzzConfig(const std::string& backend,
                    const std::string& component, int shards,
                    uint64_t master_seed)
{
    ParallelCampaignConfig config;
    config.campaign.virtualBudget = 60ll * 60 * 1000;
    config.campaign.maxIterations = 60;
    config.campaign.coverageComponent = component;
    config.campaign.sampleEveryMinutes = 10;
    config.shards = shards;
    config.masterSeed = master_seed;
    config.fuzzerFactory = [backend](uint64_t seed) {
        fuzz::PassSequenceFuzzer::Options options;
        options.backend = backend;
        options.generator.targetOpNodes = 6;
        return std::make_unique<fuzz::PassSequenceFuzzer>(seed, options);
    };
    config.backendFactory = [backend] {
        std::vector<std::unique_ptr<backends::Backend>> owned;
        owned.push_back(backends::makeBackend(backend));
        return owned;
    };
    return config;
}

TEST(ParallelCampaign, OrtLitePassFuzzIsShardInvariant)
{
    const auto serial = fuzz::runParallelCampaign(
        graphPassFuzzConfig("OrtLite", "ortlite", 1, 2023));
    const auto two = fuzz::runParallelCampaign(
        graphPassFuzzConfig("OrtLite", "ortlite", 2, 2023));
    const auto four = fuzz::runParallelCampaign(
        graphPassFuzzConfig("OrtLite", "ortlite", 4, 2023));
    EXPECT_GT(serial.coverPass.count(), 0u); // ortlite/pass/seq bins
    EXPECT_FALSE(serial.instanceKeys.empty()); // passseq/OrtLite/...
    EXPECT_EQ(renderCampaignResult(serial), renderCampaignResult(two));
    EXPECT_EQ(renderCampaignResult(serial), renderCampaignResult(four));
}

TEST(ParallelCampaign, TrtLitePassFuzzIsShardInvariant)
{
    const auto serial = fuzz::runParallelCampaign(
        graphPassFuzzConfig("TrtLite", "trtlite", 1, 2023));
    const auto two = fuzz::runParallelCampaign(
        graphPassFuzzConfig("TrtLite", "trtlite", 2, 2023));
    const auto four = fuzz::runParallelCampaign(
        graphPassFuzzConfig("TrtLite", "trtlite", 4, 2023));
    EXPECT_GT(serial.coverPass.count(), 0u); // trtlite/pass/seq bins
    EXPECT_FALSE(serial.instanceKeys.empty());
    EXPECT_EQ(renderCampaignResult(serial), renderCampaignResult(two));
    EXPECT_EQ(renderCampaignResult(serial), renderCampaignResult(four));
}

TEST(ParallelCampaign, GraphPassFuzzCorpusReplayIsShardInvariant)
{
    // Everything at once — pass fuzzing, minimization and corpus
    // replay — must still be byte-identical for shards {1, 2, 4}:
    // the emitted graph-sequence repros round-trip through the corpus
    // and re-fire under the backend-oracle replay.
    const auto dir = std::filesystem::path(testing::TempDir()) /
                     "nnsmith-passfuzz-corpus-shards";
    std::filesystem::remove_all(dir);
    auto emit = graphPassFuzzConfig("OrtLite", "ortlite", 2, 2023);
    emit.campaign.minimize = true;
    emit.campaign.reportDir = dir.string();
    const auto emitted = fuzz::runParallelCampaign(emit);
    ASSERT_GT(emitted.bugs.size(), 0u);

    auto read_tsv = [&]() {
        std::ifstream in(dir / "regressions.tsv", std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };
    std::vector<fuzz::CampaignResult> results;
    std::vector<std::string> tsvs;
    for (const int shards : {1, 2, 4}) {
        auto config = graphPassFuzzConfig("OrtLite", "ortlite", shards,
                                          2023);
        config.campaign.minimize = true;
        config.campaign.corpusDir = dir.string();
        results.push_back(fuzz::runParallelCampaign(config));
        tsvs.push_back(read_tsv());
    }
    ASSERT_FALSE(tsvs[0].empty());
    EXPECT_EQ(tsvs[0], tsvs[1]);
    EXPECT_EQ(tsvs[0], tsvs[2]);
    for (const auto& result : results) {
        EXPECT_EQ(corpus::renderRegressions(result.regressions), tsvs[0]);
        EXPECT_GT(result.regressions.total(), 0u);
        EXPECT_EQ(result.regressions.stillFires,
                  result.regressions.total());
    }
    EXPECT_EQ(renderCampaignResult(results[0]),
              renderCampaignResult(results[1]));
    EXPECT_EQ(renderCampaignResult(results[0]),
              renderCampaignResult(results[2]));
    std::filesystem::remove_all(dir);
}

TEST(ParallelCampaign, CorpusReplayIsShardInvariant)
{
    // A campaign with --corpus + --minimize must produce identical
    // regressions.tsv bytes and identical merged results for shards
    // {1, 2, 4}: replay runs once on the coordinator, outside coverage
    // accounting, so it composes with sharding like minimization does.
    const auto dir = std::filesystem::path(testing::TempDir()) /
                     "nnsmith-corpus-shards";
    std::filesystem::remove_all(dir);
    auto emit = testConfig(2, 2023);
    emit.campaign.minimize = true;
    emit.campaign.reportDir = dir.string();
    const auto emitted = fuzz::runParallelCampaign(emit);
    ASSERT_GT(emitted.bugs.size(), 0u);

    auto read_tsv = [&]() {
        std::ifstream in(dir / "regressions.tsv", std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };
    std::vector<fuzz::CampaignResult> results;
    std::vector<std::string> tsvs;
    for (const int shards : {1, 2, 4}) {
        auto config = testConfig(shards, 2023);
        config.campaign.minimize = true;
        config.campaign.corpusDir = dir.string();
        results.push_back(fuzz::runParallelCampaign(config));
        tsvs.push_back(read_tsv());
    }
    ASSERT_FALSE(tsvs[0].empty());
    EXPECT_EQ(tsvs[0], tsvs[1]);
    EXPECT_EQ(tsvs[0], tsvs[2]);
    for (const auto& result : results) {
        EXPECT_EQ(corpus::renderRegressions(result.regressions), tsvs[0]);
        // The corpus came from the same code and seed, so every known
        // fingerprint re-fires.
        EXPECT_GT(result.regressions.total(), 0u);
        EXPECT_EQ(result.regressions.stillFires,
                  result.regressions.total());
    }
    EXPECT_EQ(renderCampaignResult(results[0]),
              renderCampaignResult(results[1]));
    EXPECT_EQ(renderCampaignResult(results[0]),
              renderCampaignResult(results[2]));
    std::filesystem::remove_all(dir);
}

TEST(ParallelCampaign, CorpusGuidedIsShardAndWorkerModeInvariant)
{
    // --corpus-guided diverts a seeded fraction of iterations into
    // corpus mutation (fuzz/mutator.h). The pool is loaded once on the
    // coordinator before any worker starts and each iteration's
    // CorpusGuidedFuzzer consumes only its own derived-seed RNG, so
    // the full matrix {thread, process} x shards {1, 2, 4} — with
    // --minimize and --corpus replay on top — must merge
    // byte-identically, regressions.tsv included.
    const auto dir = std::filesystem::path(testing::TempDir()) /
                     "nnsmith-corpus-guided-shards";
    std::filesystem::remove_all(dir);
    auto emit = testConfig(2, 2023);
    emit.campaign.minimize = true;
    emit.campaign.reportDir = dir.string();
    const auto emitted = fuzz::runParallelCampaign(emit);
    ASSERT_GT(emitted.bugs.size(), 0u);

    auto read_tsv = [&]() {
        std::ifstream in(dir / "regressions.tsv", std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };
    std::vector<fuzz::CampaignResult> results;
    std::vector<std::string> tsvs;
    for (const auto mode :
         {fuzz::WorkerMode::kThread, fuzz::WorkerMode::kProcess}) {
        for (const int shards : {1, 2, 4}) {
            auto config = testConfig(shards, 2023);
            config.workerMode = mode;
            config.campaign.minimize = true;
            config.campaign.corpusDir = dir.string();
            config.campaign.corpusGuided = true;
            results.push_back(fuzz::runParallelCampaign(config));
            tsvs.push_back(read_tsv());
        }
    }
    ASSERT_FALSE(tsvs[0].empty());
    for (size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(renderCampaignResult(results[0]),
                  renderCampaignResult(results[i]));
        EXPECT_EQ(tsvs[0], tsvs[i]);
    }
    EXPECT_EQ(results[0].fuzzer, "NNSmith+corpus");

    // Guidance changes what the diverted iterations run: the guided
    // campaign must actually diverge from the unguided one.
    auto unguided = testConfig(1, 2023);
    unguided.campaign.minimize = true;
    unguided.campaign.corpusDir = dir.string();
    const auto baseline = fuzz::runParallelCampaign(unguided);
    EXPECT_NE(results[0].instanceKeys, baseline.instanceKeys);
    std::filesystem::remove_all(dir);
}

/** A Tzer campaign over the first 40 iterations of @p seed. */
ParallelCampaignConfig
tzerConfig(int shards, fuzz::WorkerMode mode, uint64_t seed)
{
    auto config = testConfig(shards, seed);
    config.campaign.maxIterations = 40;
    config.campaign.coverageComponent = "tvmlite";
    config.campaign.minimize = true;
    config.workerMode = mode;
    config.fuzzerFactory = baselines::tzerFactory(seed);
    return config;
}

TEST(ParallelCampaign, TzerRunsAsOneInOrderShardInEitherRuntime)
{
    // Tzer carries its corpus across iterations, so it runs as one
    // shard; both worker modes must deliver its iterations in order and
    // merge to the same result.
    const auto thread = fuzz::runParallelCampaign(
        tzerConfig(1, fuzz::WorkerMode::kThread, 31));
    EXPECT_EQ(thread.fuzzer, "Tzer");
    EXPECT_EQ(thread.iterations, 40u);
    EXPECT_FALSE(thread.bugs.empty());
    EXPECT_GT(thread.coverPass.count(), 0u);
    EXPECT_EQ(renderCampaignResult(thread),
              renderCampaignResult(fuzz::runParallelCampaign(
                  tzerConfig(1, fuzz::WorkerMode::kProcess, 31))));
}

TEST(ParallelCampaign, TzerRejectsMoreThanOneShard)
{
    // Two shards hand the shared Tzer iterations out of order; the run
    // must fail rather than merge a silently different campaign.
    for (const auto mode :
         {fuzz::WorkerMode::kThread, fuzz::WorkerMode::kProcess})
        EXPECT_ANY_THROW(
            fuzz::runParallelCampaign(tzerConfig(2, mode, 31)))
            << fuzz::workerModeName(mode);
}

TEST(ParallelCampaign, RenderingCoversEveryFieldButTelemetry)
{
    auto config = testConfig(2, 2023);
    config.campaign.minimize = true;
    const auto result = fuzz::runParallelCampaign(config);
    const std::string text = renderCampaignResult(result);
    const auto with_leaves = std::find_if(
        result.bugs.begin(), result.bugs.end(), [](const auto& entry) {
            const auto& repro = entry.second.graphRepro;
            return repro != nullptr && !repro->leaves.empty() &&
                   repro->leaves.begin()->second.numel() > 0;
        });
    ASSERT_NE(with_leaves, result.bugs.end());
    const std::string key = with_leaves->first;

    auto leaf = result;
    auto repro =
        std::make_shared<fuzz::GraphRepro>(*leaf.bugs[key].graphRepro);
    auto& tensor = repro->leaves.begin()->second;
    tensor.setScalar(0, tensor.scalarAt(0) == 0.0 ? 1.0 : 0.0);
    leaf.bugs[key].graphRepro = repro;
    EXPECT_NE(renderCampaignResult(leaf), text);

    auto detail = result;
    detail.bugs[key].detail += " (edited)";
    EXPECT_NE(renderCampaignResult(detail), text);

    auto series = result;
    ASSERT_GT(series.series.size(), 1u);
    ++series.series[1].coverageAll;
    EXPECT_NE(renderCampaignResult(series), text);

    auto time = result;
    ++time.virtualTime;
    EXPECT_NE(renderCampaignResult(time), text);

    // Fabric telemetry describes the run, not the result.
    auto telemetry = result;
    telemetry.workerFaults.push_back(
        fuzz::WorkerFault{1, 0, 16, "crash", "", 0});
    telemetry.respawns = 1;
    EXPECT_EQ(renderCampaignResult(telemetry), text);
}

TEST(ParallelCampaign, SeedDerivationIsStableAndSpreads)
{
    EXPECT_EQ(fuzz::deriveIterationSeed(42, 0),
              fuzz::deriveIterationSeed(42, 0));
    std::set<uint64_t> seeds;
    for (uint64_t i = 0; i < 1000; ++i)
        seeds.insert(fuzz::deriveIterationSeed(42, i));
    EXPECT_EQ(seeds.size(), 1000u);
}

} // namespace
} // namespace nnsmith
