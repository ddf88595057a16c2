/** Tests for the campaign fabric: wire-format round trips, canonical
 *  site-key interning, thread-vs-process worker identity (including
 *  --minimize --corpus runs), crash-isolated worker restart, and the
 *  strict malformed-input contract of the wire parsers. */
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "backends/backend.h"
#include "corpus/corpus.h"
#include "corpus/replay.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/wire.h"
#include "fuzz/worker_runtime.h"

namespace nnsmith {
namespace {

using fuzz::CampaignResult;
using fuzz::ParallelCampaignConfig;
using fuzz::renderCampaignResult;
using fuzz::ShardResult;
using fuzz::SiteHit;
using fuzz::WorkerMode;
namespace wire = fuzz::wire;

ParallelCampaignConfig
fabricConfig(int shards, WorkerMode mode, uint64_t master_seed)
{
    ParallelCampaignConfig config;
    config.campaign.virtualBudget = 60ll * 60 * 1000;
    config.campaign.maxIterations = 48;
    config.campaign.coverageComponent = "ortlite";
    config.campaign.sampleEveryMinutes = 10;
    config.shards = shards;
    config.workerMode = mode;
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

void
expectRecordsEqual(const std::vector<ShardResult::IterationRecord>& a,
                   const std::vector<ShardResult::IterationRecord>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].cost, b[i].cost);
        EXPECT_EQ(a[i].produced, b[i].produced);
        EXPECT_EQ(a[i].bugs, b[i].bugs);
        EXPECT_EQ(a[i].instanceKeys, b[i].instanceKeys);
        EXPECT_EQ(a[i].hits, b[i].hits);
    }
}

// ---------------------------------------------------------------------------
// Canonical site keys
// ---------------------------------------------------------------------------

TEST(Fabric, SiteKeysInternToStableIds)
{
    auto& registry = coverage::CoverageRegistry::instance();
    const auto id = registry.registerSite("fabrickeys/sub", __FILE__,
                                          1234, 7, /*pass_only=*/true);
    const auto infos = registry.describeSites({id});
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_TRUE(infos[0].passOnly);
    EXPECT_EQ(infos[0].key.rfind("fabrickeys/sub|", 0), 0u);
    // Interning the described key must find the existing site, not
    // mint a new id — the property process-portable merging rests on.
    EXPECT_EQ(registry.internSiteKey(infos[0].key, true), id);
    // And an unknown key mints exactly one new site under the key's
    // component prefix.
    const size_t before = registry.sitesRegistered("fabrickeys");
    const auto minted =
        registry.internSiteKey("fabrickeys/other|dyn|k1", false);
    EXPECT_EQ(registry.internSiteKey("fabrickeys/other|dyn|k1", false),
              minted);
    EXPECT_EQ(registry.sitesRegistered("fabrickeys"), before + 1);
}

TEST(Fabric, RangeSitesCohereWithInternedKeys)
{
    // A coordinator may intern "component|range#i" keys from a worker
    // before this process ever calls hitRange for that component; the
    // later hitRange must reuse the interned ids instead of minting a
    // parallel block.
    auto& registry = coverage::CoverageRegistry::instance();
    const auto interned =
        registry.internSiteKey("fabricrange|range#2", false);
    coverage::CoverageCollector collector;
    registry.hitRange("fabricrange", 4, 1.0, false);
    const auto hits = collector.take();
    EXPECT_EQ(hits.size(), 4u);
    EXPECT_NE(std::find(hits.begin(), hits.end(), interned), hits.end());
    EXPECT_EQ(registry.sitesRegistered("fabricrange"), 4u);
}

TEST(Fabric, HitsRoundTripThroughWire)
{
    auto& registry = coverage::CoverageRegistry::instance();
    std::vector<coverage::BranchId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(registry.registerSite("fabricwirehits", __FILE__,
                                            2000, i, i % 2 == 0));
    const auto hits = wire::hitsToWire(ids);
    ASSERT_EQ(hits.size(), ids.size());
    for (size_t i = 1; i < hits.size(); ++i)
        EXPECT_LT(hits[i - 1].key, hits[i].key); // sorted by site key
    const auto back = wire::hitsFromWire(hits);
    EXPECT_EQ(std::set<coverage::BranchId>(back.begin(), back.end()),
              std::set<coverage::BranchId>(ids.begin(), ids.end()));
}

// ---------------------------------------------------------------------------
// Wire round trip on a real campaign
// ---------------------------------------------------------------------------

TEST(Fabric, WireRecordsRoundTripOnMinimizingCampaign)
{
    // 200 iterations with minimization on: enough to exercise bug
    // payloads (rendered repro documents), instance keys and hit sets.
    auto config =
        fabricConfig(2, WorkerMode::kThread, 2023);
    config.campaign.maxIterations = 200;
    config.campaign.minimize = true;
    const auto shards = fuzz::runShards(config);
    ASSERT_EQ(shards.size(), 2u);
    size_t bugs = 0, hits = 0;
    for (const auto& shard : shards) {
        ASSERT_FALSE(shard.records.empty());
        for (const auto& record : shard.records) {
            bugs += record.bugs.size();
            hits += record.hits.size();
        }
        const std::string encoded = wire::encodeRecords(shard.records);
        const auto decoded = wire::decodeRecords(encoded);
        expectRecordsEqual(shard.records, decoded);
        // Serialize -> parse -> serialize is byte-identical: the
        // regression oracle for the whole wire format.
        EXPECT_EQ(wire::encodeRecords(decoded), encoded);
    }
    EXPECT_GT(bugs, 0u);
    EXPECT_GT(hits, 0u);
}

TEST(Fabric, BareBugDocumentsRoundTrip)
{
    fuzz::BugRecord bug;
    bug.dedupKey = "SomeBackend|crash|case-17";
    bug.backend = "SomeBackend";
    bug.kind = "crash";
    bug.detail = "detail text with spaces";
    bug.defects = {"D1", "D2"};
    const std::string encoded = wire::encodeBug(bug);
    const auto back = wire::decodeBug(encoded);
    EXPECT_EQ(back.dedupKey, bug.dedupKey);
    EXPECT_EQ(back.backend, bug.backend);
    EXPECT_EQ(back.kind, bug.kind);
    EXPECT_EQ(back.detail, bug.detail);
    EXPECT_EQ(back.defects, bug.defects);
    EXPECT_EQ(wire::encodeBug(back), encoded);
}

TEST(Fabric, BareBugHeaderIsCheckedLikeAReproHeader)
{
    // Repro-less documents share the repro documents' header lines and
    // their checks: a non-empty fingerprint and a known kind.
    fuzz::BugRecord bug;
    bug.dedupKey = "SomeBackend|crash|case-17";
    bug.backend = "SomeBackend";
    bug.kind = "crash";
    bug.detail = "d";
    bug.defects = {"D1"};
    const std::string encoded = wire::encodeBug(bug);
    EXPECT_EQ(encoded, "# nnsmith wire bug (no repro)\n"
                       "fingerprint: SomeBackend|crash|case-17\n"
                       "backend: SomeBackend\n"
                       "kind: crash\n"
                       "detail: d\n"
                       "defects: D1\n");
    auto edit = [&](const std::string& from, const std::string& to) {
        std::string text = encoded;
        const auto at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return text.replace(at, from.size(), to);
    };
    EXPECT_THROW(wire::decodeBug(edit("kind: crash", "kind: bogus")),
                 corpus::ParseError);
    EXPECT_THROW(wire::decodeBug(edit("fingerprint: SomeBackend|crash|case-17",
                                      "fingerprint: ")),
                 corpus::ParseError);
}

// ---------------------------------------------------------------------------
// Malformed input: structured errors, never crashes
// ---------------------------------------------------------------------------

TEST(Fabric, MalformedWireInputThrowsParseError)
{
    const std::string good = wire::encodeRecords(
        {ShardResult::IterationRecord{3, 100, true, {}, {"k"}, {}}});
    ASSERT_NO_THROW(wire::decodeRecords(good));

    const std::vector<std::string> bad = {
        "",                                   // no magic
        "nnsmith-wire 2\nend-block\n",        // wrong version
        "nnsmith-wire 1\n",                   // missing end-block
        "nnsmith-wire 1\nrecord 1 2\nend\nend-block\n", // short header
        "nnsmith-wire 1\nrecord x 2 1 0 0 0\nend\nend-block\n",
        "nnsmith-wire 1\nrecord 1 -5 1 0 0 0\nend\nend-block\n",
        "nnsmith-wire 1\nrecord 1 2 7 0 0 0\nend\nend-block\n",
        // hit count promises more lines than present
        "nnsmith-wire 1\nrecord 1 2 1 2 0 0\nhit - a|b\nend\nend-block\n",
        "nnsmith-wire 1\nrecord 1 2 1 1 0 0\nhit ? a|b\nend\nend-block\n",
        "nnsmith-wire 1\nrecord 1 2 1 1 0 0\nhit - \nend\nend-block\n",
        // bug payload shorter than its byte count
        "nnsmith-wire 1\nrecord 1 2 1 0 0 1\nbug 100\nabc\nend\nend-block\n",
        // bug payload not newline-terminated
        "nnsmith-wire 1\nrecord 1 2 1 0 0 1\nbug 3\nabcend\nend-block\n",
        // missing record terminator
        "nnsmith-wire 1\nrecord 1 2 1 0 0 0\nend-block\n",
        good + "trailing",
    };
    for (const auto& text : bad) {
        EXPECT_THROW(wire::decodeRecords(text), corpus::ParseError)
            << "input: " << text;
    }

    EXPECT_THROW(wire::decodeBug("# not a known magic\n"),
                 corpus::ParseError);
    EXPECT_THROW(wire::decodeBug("# nnsmith wire bug (no repro)\n"),
                 corpus::ParseError); // truncated header-only document
    EXPECT_THROW(wire::hitsFromWire({SiteHit{false, "no-component"}}),
                 corpus::ParseError);
}

// ---------------------------------------------------------------------------
// Thread vs process worker identity
// ---------------------------------------------------------------------------

TEST(Fabric, ProcessWorkersMatchThreadWorkers)
{
    const auto thread_serial = fuzz::runParallelCampaign(
        fabricConfig(1, WorkerMode::kThread, 2023));
    EXPECT_GT(thread_serial.iterations, 0u);
    EXPECT_GT(thread_serial.coverAll.count(), 0u);
    for (const int shards : {1, 2, 4}) {
        const auto process = fuzz::runParallelCampaign(
            fabricConfig(shards, WorkerMode::kProcess, 2023));
        EXPECT_EQ(renderCampaignResult(thread_serial),
                  renderCampaignResult(process));
    }
}

TEST(Fabric, ProcessCorpusReplayMatchesThread)
{
    // The full stack at once — process workers, minimization, report
    // emission and regression-corpus replay — must be byte-identical
    // to thread workers, including the regressions.tsv bytes.
    const auto dir = std::filesystem::path(testing::TempDir()) /
                     "nnsmith-fabric-corpus";
    std::filesystem::remove_all(dir);
    auto emit = fabricConfig(2, WorkerMode::kProcess, 2023);
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
    std::vector<CampaignResult> results;
    std::vector<std::string> tsvs;
    for (const auto mode : {WorkerMode::kThread, WorkerMode::kProcess}) {
        auto config = fabricConfig(2, mode, 2023);
        config.campaign.minimize = true;
        config.campaign.corpusDir = dir.string();
        results.push_back(fuzz::runParallelCampaign(config));
        tsvs.push_back(read_tsv());
    }
    ASSERT_FALSE(tsvs[0].empty());
    EXPECT_EQ(tsvs[0], tsvs[1]);
    EXPECT_EQ(renderCampaignResult(results[0]),
              renderCampaignResult(results[1]));
    for (const auto& result : results) {
        EXPECT_EQ(corpus::renderRegressions(result.regressions), tsvs[0]);
        EXPECT_GT(result.regressions.total(), 0u);
        EXPECT_EQ(result.regressions.stillFires,
                  result.regressions.total());
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash isolation
// ---------------------------------------------------------------------------

/**
 * A fuzzer factory that kills its own process the first time the
 * campaign reaches @p crash_index — once only, gated by a marker file
 * shared across the respawn. Only ever lethal inside a forked worker:
 * the coordinator calls the factory just for the index-0 name probe.
 */
fuzz::FuzzerFactory
crashingFactory(uint64_t master_seed, size_t crash_index,
                std::filesystem::path marker, int signal)
{
    const uint64_t crash_seed =
        fuzz::deriveIterationSeed(master_seed, crash_index);
    return [crash_seed, marker, signal](uint64_t seed) {
        if (seed == crash_seed && !std::filesystem::exists(marker)) {
            std::ofstream(marker).put('x'); // arm the respawn path
            if (signal == SIGABRT)
                std::abort();
            ::kill(::getpid(), signal);
        }
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 5;
        options.runValueSearch = false;
        return std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
    };
}

class FabricCrash : public testing::TestWithParam<int> {};

TEST_P(FabricCrash, CrashedWorkerIsRespawnedAndMergeIsIdentical)
{
    const auto marker =
        std::filesystem::path(testing::TempDir()) /
        ("nnsmith-fabric-crash-" + std::to_string(GetParam()));
    std::filesystem::remove(marker);

    const auto reference = fuzz::runParallelCampaign(
        fabricConfig(2, WorkerMode::kThread, 2023));

    // Index 7 is mid-round for both workers: the dying worker loses
    // already-executed records of the round and must regenerate them
    // deterministically after the respawn.
    auto config = fabricConfig(2, WorkerMode::kProcess, 2023);
    config.fuzzerFactory =
        crashingFactory(config.masterSeed, 7, marker, GetParam());
    const auto survived = fuzz::runParallelCampaign(config);
    EXPECT_TRUE(std::filesystem::exists(marker)); // the crash fired
    EXPECT_EQ(renderCampaignResult(reference), renderCampaignResult(survived));
    std::filesystem::remove(marker);
}

INSTANTIATE_TEST_SUITE_P(Signals, FabricCrash,
                         testing::Values(SIGKILL, SIGABRT));

TEST(Fabric, DeterministicallyCrashingWorkerAbortsTheCampaign)
{
    // Without the marker-file gate the same iteration dies on every
    // respawn; the campaign must give up with an error instead of
    // respawning forever.
    auto config = fabricConfig(2, WorkerMode::kProcess, 2023);
    const uint64_t crash_seed =
        fuzz::deriveIterationSeed(config.masterSeed, 7);
    config.fuzzerFactory = [crash_seed](uint64_t seed)
        -> std::unique_ptr<fuzz::Fuzzer> {
        if (seed == crash_seed)
            ::kill(::getpid(), SIGKILL);
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 5;
        options.runValueSearch = false;
        return std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
    };
    EXPECT_THROW(fuzz::runParallelCampaign(config), std::runtime_error);
}

class FabricWorkerErrors : public testing::TestWithParam<WorkerMode> {};

TEST_P(FabricWorkerErrors, DeterministicErrorPropagatesWithItsMessage)
{
    // An exception in the fuzzing stack is a reported error, not a
    // crash. It fails again on every retry, so once the retries are
    // spent it must abort the campaign with the worker's message, the
    // same in both worker modes.
    auto config = fabricConfig(4, GetParam(), 11);
    config.fuzzerFactory = [](uint64_t seed)
        -> std::unique_ptr<fuzz::Fuzzer> {
        if (seed % 3 == 0)
            throw std::runtime_error("factory blew up");
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 5;
        options.runValueSearch = false;
        return std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
    };
    try {
        fuzz::runParallelCampaign(config);
        FAIL() << "expected the worker error to propagate";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("factory blew up"),
                  std::string::npos);
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, FabricWorkerErrors,
                         testing::Values(WorkerMode::kThread,
                                         WorkerMode::kProcess));

TEST(Fabric, WorkerModeNames)
{
    EXPECT_STREQ(fuzz::workerModeName(WorkerMode::kThread), "thread");
    EXPECT_STREQ(fuzz::workerModeName(WorkerMode::kProcess), "process");
}

} // namespace
} // namespace nnsmith
