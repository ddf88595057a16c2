/** Tests for the defect-reduction subsystem (reduce/): the ddmin core,
 *  GraphReducer and PassSequenceReducer invariants (minimized repro
 *  still validates and fires the same fingerprint, determinism,
 *  idempotence), fingerprint-keyed dedup, shard invariance of
 *  campaigns with minimization enabled, and the repro report writer. */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "backends/backend.h"
#include "corpus/replay.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/pass_fuzzer.h"
#include "graph/validate.h"
#include "reduce/ddmin.h"
#include "reduce/reducer.h"
#include "reduce/report.h"

namespace nnsmith {
namespace {

using fuzz::BugRecord;
using fuzz::IterationOutcome;
using fuzz::ParallelCampaignConfig;

// ---- ddmin core -----------------------------------------------------------

TEST(Ddmin, FindsExactTwoItemCore)
{
    // Fails iff both items 2 and 5 are kept — the classic ddmin demo.
    auto contains_core = [](const std::vector<size_t>& kept) {
        const bool has2 = std::count(kept.begin(), kept.end(), 2u) != 0;
        const bool has5 = std::count(kept.begin(), kept.end(), 5u) != 0;
        return has2 && has5;
    };
    reduce::DdminStats stats;
    const auto minimal = reduce::ddmin(8, contains_core, &stats);
    EXPECT_EQ(minimal, (std::vector<size_t>{2, 5}));
    EXPECT_EQ(stats.originalSize, 8u);
    EXPECT_EQ(stats.minimizedSize, 2u);
    EXPECT_GT(stats.testsRun, 0u);
    EXPECT_FALSE(stats.budgetExhausted);
}

TEST(Ddmin, FindsSingletonCore)
{
    auto has3 = [](const std::vector<size_t>& kept) {
        return std::count(kept.begin(), kept.end(), 3u) != 0;
    };
    EXPECT_EQ(reduce::ddmin(16, has3), (std::vector<size_t>{3}));
}

TEST(Ddmin, DeterministicAndIdempotent)
{
    auto pred = [](const std::vector<size_t>& kept) {
        // Needs one even and one odd index kept.
        bool even = false, odd = false;
        for (size_t i : kept)
            (i % 2 == 0 ? even : odd) = true;
        return even && odd;
    };
    const auto first = reduce::ddmin(12, pred);
    const auto second = reduce::ddmin(12, pred);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.size(), 2u);
    // Re-reducing an already minimal set changes nothing: remap the
    // minimal indices onto {0..n-1} and reduce again.
    auto remapped = [&](const std::vector<size_t>& kept) {
        std::vector<size_t> original;
        for (size_t i : kept)
            original.push_back(first[i]);
        return pred(original);
    };
    EXPECT_EQ(reduce::ddmin(first.size(), remapped).size(), first.size());
}

TEST(Ddmin, BudgetCutIsCleanAndResultStillFails)
{
    size_t calls = 0;
    auto pred = [&](const std::vector<size_t>& kept) {
        ++calls;
        return std::count(kept.begin(), kept.end(), 7u) != 0;
    };
    reduce::DdminStats stats;
    const auto minimal = reduce::ddmin(64, pred, &stats, /*max_tests=*/3);
    EXPECT_LE(stats.testsRun, 3u);
    EXPECT_EQ(calls, stats.testsRun);
    // Whatever was reached under budget must still satisfy the
    // predicate (ddmin only ever narrows to failing subsets).
    EXPECT_TRUE(pred(minimal));
}

// ---- fingerprint keys -----------------------------------------------------

TEST(Fingerprint, WrongResultKeyIsOrderAndNoiseInvariant)
{
    BugRecord a;
    a.backend = "OrtLite";
    a.kind = "wrong-result";
    a.dedupKey = "OrtLite|wrong|raw-trace-order-1";
    a.defects = {"ort.simplify.slice_noop", "ort.misc.parallel_reorder"};

    BugRecord b = a;
    b.dedupKey = "OrtLite|wrong|raw-trace-order-2";
    b.defects = {"ort.misc.parallel_reorder", "ort.simplify.slice_noop",
                 // another system's defect is noise for OrtLite's key
                 "tvm.fuse.broadcast_output"};

    EXPECT_EQ(reduce::fingerprintKey(a), reduce::fingerprintKey(b));
    EXPECT_EQ(reduce::fingerprintKey(a),
              "OrtLite|wrong|ort.misc.parallel_reorder,"
              "ort.simplify.slice_noop");
}

TEST(Fingerprint, CrashKeysPassThrough)
{
    BugRecord bug;
    bug.backend = "TVMLite";
    bug.kind = "crash";
    bug.dedupKey = "TVMLite|crash|tvm.layout.nchw4c_slice";
    bug.defects = {"tvm.layout.nchw4c_slice", "exp.clip.i32"};
    EXPECT_EQ(reduce::fingerprintKey(bug), bug.dedupKey);
}

// ---- graph reduction ------------------------------------------------------

/** @p bug's repro as a graph case; throws when it is another kind. */
const fuzz::GraphRepro&
graphOf(const BugRecord& bug)
{
    return std::get<fuzz::GraphRepro>(*bug.repro);
}

struct Flagged {
    BugRecord bug;
    std::vector<std::unique_ptr<backends::Backend>> owned;
    std::vector<backends::Backend*> backends;
};

/** Fuzz until a graph case is flagged; returns the first bug record. */
Flagged
findFlaggedGraphCase(uint64_t seed_base)
{
    Flagged flagged;
    flagged.owned = difftest::makeAllBackends();
    for (auto& backend : flagged.owned)
        flagged.backends.push_back(backend.get());

    fuzz::NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 10;
    options.runValueSearch = false;
    for (uint64_t seed = seed_base; seed < seed_base + 200; ++seed) {
        fuzz::NNSmithFuzzer fuzzer(options, seed);
        IterationOutcome outcome = fuzzer.iterate(flagged.backends);
        if (outcome.bugs.empty())
            continue;
        flagged.bug = outcome.bugs.front();
        EXPECT_NE(flagged.bug.repro, nullptr);
        return flagged;
    }
    ADD_FAILURE() << "no flagged graph case in 200 iterations";
    return flagged;
}

TEST(GraphReducer, MinimizedReproValidatesAndFiresSameFingerprint)
{
    Flagged flagged = findFlaggedGraphCase(9000);
    ASSERT_NE(flagged.bug.repro, nullptr);
    const auto original = flagged.bug.repro;

    ASSERT_TRUE(reduce::minimizeBug(flagged.bug, flagged.backends));
    ASSERT_NE(flagged.bug.repro, nullptr);
    const auto& minimized = graphOf(flagged.bug);
    EXPECT_TRUE(flagged.bug.minimized);
    EXPECT_GT(flagged.bug.originalSize, 0u);
    EXPECT_LE(flagged.bug.minimizedSize, flagged.bug.originalSize);
    EXPECT_EQ(flagged.bug.originalSize,
              static_cast<size_t>(
                  std::get<fuzz::GraphRepro>(*original).graph.numOpNodes()));
    EXPECT_EQ(flagged.bug.minimizedSize,
              static_cast<size_t>(minimized.graph.numOpNodes()));
    // The minimized repro is a valid model that re-triggers the
    // identical defect-trace fingerprint.
    EXPECT_TRUE(graph::validate(minimized.graph).ok());
    EXPECT_TRUE(reduce::reproStillFires(flagged.bug, flagged.backends));
    // minimizedDefects is the minimized repro's own trace: re-running
    // the oracle on the minimized case must reproduce it exactly
    // (bug.defects keeps the discovery-time trace).
    const auto rerun = difftest::runCase(minimized.graph, minimized.leaves,
                                         flagged.backends);
    EXPECT_EQ(rerun.triggeredDefects, flagged.bug.minimizedDefects);
}

TEST(GraphReducer, DeterministicAndIdempotent)
{
    Flagged flagged = findFlaggedGraphCase(9300);
    ASSERT_NE(flagged.bug.repro, nullptr);

    BugRecord first = flagged.bug;
    BugRecord second = flagged.bug;
    ASSERT_TRUE(reduce::minimizeBug(first, flagged.backends));
    ASSERT_TRUE(reduce::minimizeBug(second, flagged.backends));
    EXPECT_EQ(first.dedupKey, second.dedupKey);
    EXPECT_EQ(first.minimizedSize, second.minimizedSize);
    EXPECT_EQ(graphOf(first).graph.toString(),
              graphOf(second).graph.toString());

    // Reducing the minimized repro again cannot shrink it further.
    BugRecord again = first;
    ASSERT_TRUE(reduce::minimizeBug(again, flagged.backends));
    EXPECT_EQ(again.minimizedSize, first.minimizedSize);
    EXPECT_EQ(graphOf(again).graph.toString(),
              graphOf(first).graph.toString());
}

// ---- pass-sequence reduction ----------------------------------------------

/** Fuzz pass sequences until one is flagged. */
BugRecord
findFlaggedSequence(uint64_t seed_base)
{
    for (uint64_t seed = seed_base; seed < seed_base + 2000; ++seed) {
        fuzz::PassSequenceFuzzer fuzzer(seed);
        IterationOutcome outcome = fuzzer.iterate({});
        if (outcome.bugs.empty())
            continue;
        const auto& repro = outcome.bugs.front().repro;
        EXPECT_TRUE(repro != nullptr &&
                    std::holds_alternative<fuzz::SeqRepro>(*repro));
        return outcome.bugs.front();
    }
    ADD_FAILURE() << "no flagged pass sequence in 2000 iterations";
    return BugRecord{};
}

bool
isSubsequence(const std::vector<std::string>& sub,
              const std::vector<std::string>& full)
{
    size_t i = 0;
    for (const auto& pass : full) {
        if (i < sub.size() && sub[i] == pass)
            ++i;
    }
    return i == sub.size();
}

TEST(PassSequenceReducer, MinimalFailingSubsequence)
{
    BugRecord bug = findFlaggedSequence(100);
    ASSERT_NE(bug.repro, nullptr);
    const auto original = bug.repro;
    const auto& original_sequence =
        std::get<fuzz::SeqRepro>(*original).sequence;
    const std::string original_key = bug.dedupKey;

    ASSERT_TRUE(reduce::minimizeBug(bug, {}));
    const auto& sequence = std::get<fuzz::SeqRepro>(*bug.repro).sequence;
    EXPECT_TRUE(bug.minimized);
    EXPECT_EQ(bug.originalSize, original_sequence.size());
    EXPECT_LE(bug.minimizedSize, bug.originalSize);
    EXPECT_GE(bug.minimizedSize, 1u);
    // Minimization keeps pass order: the result is a subsequence.
    EXPECT_TRUE(isSubsequence(sequence, original_sequence));
    // Sequence keys are already canonical; reduction must not change
    // the bug's identity.
    EXPECT_EQ(bug.dedupKey, original_key);
    EXPECT_TRUE(reduce::reproStillFires(bug, {}));

    BugRecord again = bug;
    ASSERT_TRUE(reduce::minimizeBug(again, {}));
    EXPECT_EQ(again.minimizedSize, bug.minimizedSize);
    EXPECT_EQ(std::get<fuzz::SeqRepro>(*again.repro).sequence, sequence);
}

TEST(PassSequenceReducer, FlaggedBugsRefireAndReplayBeforeAndAfterMinimizing)
{
    // Every bug a pass-sequence campaign flags, on each of the three
    // registries, must re-fire under reproStillFires and replay as
    // still-fires: as flagged, and again after minimizeBugs. The
    // iterations run one derived seed each, as a campaign's do, but
    // unmerged, so every raw record is checked.
    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> list;
    for (auto& backend : owned)
        list.push_back(backend.get());
    for (const std::string backend : {"TVMLite", "OrtLite", "TrtLite"}) {
        fuzz::PassSequenceFuzzer::Options options;
        options.backend = backend;
        std::vector<BugRecord> bugs;
        for (uint64_t i = 0; i < 48; ++i) {
            fuzz::PassSequenceFuzzer fuzzer(fuzz::deriveIterationSeed(7, i),
                                            options);
            for (auto& bug : fuzzer.iterate(list).bugs)
                bugs.push_back(std::move(bug));
        }
        ASSERT_GT(bugs.size(), 0u) << backend;
        auto expect_refire = [&](const char* stage) {
            for (const auto& bug : bugs) {
                EXPECT_TRUE(reduce::reproStillFires(bug, list))
                    << stage << " " << bug.dedupKey;
                const auto outcome = corpus::replayRepro(bug, list);
                EXPECT_EQ(outcome.status,
                          corpus::ReplayStatus::kStillFires)
                    << stage << " " << bug.dedupKey << ": "
                    << outcome.detail;
            }
        };
        expect_refire("flagged");
        reduce::minimizeBugs(bugs, list);
        for (const auto& bug : bugs)
            EXPECT_TRUE(bug.minimized) << bug.dedupKey;
        expect_refire("minimized");
    }
}

// ---- campaign integration -------------------------------------------------

ParallelCampaignConfig
minimizingCampaign(int shards, uint64_t master_seed)
{
    ParallelCampaignConfig config;
    config.campaign.virtualBudget = 60ll * 60 * 1000;
    config.campaign.maxIterations = 48;
    config.campaign.coverageComponent = "ortlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = true;
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

TEST(MinimizingCampaign, ShardCountInvariantWithMinimizeOn)
{
    const auto one = fuzz::runParallelCampaign(minimizingCampaign(1, 41));
    const auto two = fuzz::runParallelCampaign(minimizingCampaign(2, 41));
    const auto four = fuzz::runParallelCampaign(minimizingCampaign(4, 41));
    EXPECT_GT(one.iterations, 0u);
    EXPECT_EQ(fuzz::renderCampaignResult(one),
              fuzz::renderCampaignResult(two));
    EXPECT_EQ(fuzz::renderCampaignResult(one),
              fuzz::renderCampaignResult(four));
}

TEST(MinimizingCampaign, MinimizeDoesNotChangeCoverageOrIterations)
{
    auto off = minimizingCampaign(2, 43);
    off.campaign.minimize = false;
    const auto baseline = fuzz::runParallelCampaign(off);
    const auto minimized =
        fuzz::runParallelCampaign(minimizingCampaign(2, 43));
    // Reduction re-runs the oracle outside coverage collection, so
    // everything except the bug map (rekeying + repro swap) matches.
    EXPECT_EQ(baseline.iterations, minimized.iterations);
    EXPECT_EQ(baseline.coverAll.branches(), minimized.coverAll.branches());
    EXPECT_EQ(baseline.coverPass.branches(),
              minimized.coverPass.branches());
    EXPECT_EQ(baseline.instanceKeys, minimized.instanceKeys);
    // Fingerprint rekeying can only merge reports, never invent them.
    EXPECT_LE(minimized.bugs.size(), baseline.bugs.size());
}

TEST(MinimizingCampaign, FlaggedBugsAreMinimizedAndRefire)
{
    const auto result =
        fuzz::runParallelCampaign(minimizingCampaign(2, 41));
    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> ort = {owned[0].get()};
    size_t with_repro = 0;
    for (const auto& [key, bug] : result.bugs) {
        const auto* graph = std::get_if<fuzz::GraphRepro>(bug.repro.get());
        if (graph == nullptr)
            continue;
        ++with_repro;
        EXPECT_TRUE(bug.minimized) << key;
        EXPECT_LE(bug.minimizedSize, bug.originalSize) << key;
        EXPECT_TRUE(graph::validate(graph->graph).ok()) << key;
        EXPECT_TRUE(reduce::reproStillFires(bug, ort)) << key;
    }
    EXPECT_GT(with_repro, 0u);
}

// ---- report writer --------------------------------------------------------

TEST(ReproReport, WritesOneFilePerBugPlusIndex)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "nnsmith-repro-test";
    std::filesystem::remove_all(dir);

    auto config = minimizingCampaign(2, 41);
    config.campaign.reportDir = dir.string();
    const auto result = fuzz::runParallelCampaign(config);

    size_t with_repro = 0;
    for (const auto& [key, bug] : result.bugs) {
        if (bug.repro != nullptr) {
            ++with_repro;
            const auto file = dir / reduce::reportFileName(key);
            EXPECT_TRUE(std::filesystem::exists(file)) << file;
        }
    }
    EXPECT_GT(with_repro, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir / "index.tsv"));

    // Re-running the identical campaign overwrites with identical
    // content (reports are a pure function of the merged bug map).
    std::map<std::string, std::uintmax_t> sizes;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        sizes[entry.path().filename().string()] =
            std::filesystem::file_size(entry.path());
    fuzz::runParallelCampaign(config);
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(sizes.at(entry.path().filename().string()),
                  std::filesystem::file_size(entry.path()))
            << entry.path();
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace nnsmith
