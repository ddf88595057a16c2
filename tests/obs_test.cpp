/** Tests for the telemetry subsystem (src/obs/): metrics snapshot
 *  merge determinism, trace JSONL well-formedness, the wire telemetry
 *  frame, the telemetry-on/off byte-identity contract across worker
 *  modes and shard counts, stalled-worker detection, fault surfacing
 *  in CampaignResult, and bench_util's strict flag parsing. */
#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "../bench/bench_util.h"
#include "backends/backend.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/wire.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace nnsmith {
namespace {

using fuzz::ParallelCampaignConfig;
using fuzz::renderCampaignResult;
using fuzz::WorkerMode;
using obs::MetricsSnapshot;
using obs::ProgressAggregator;

// ---------------------------------------------------------------------------
// A minimal JSON validator (objects, arrays, strings, numbers,
// true/false/null) — enough to prove emitted telemetry is well-formed
// without pulling in a JSON library.
// ---------------------------------------------------------------------------

struct JsonChecker {
    const std::string& text;
    size_t pos = 0;

    bool fail() { return false; }

    void ws()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool value()
    {
        ws();
        if (pos >= text.size())
            return fail();
        const char c = text[pos];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool literal(const char* word)
    {
        const size_t n = std::strlen(word);
        if (text.compare(pos, n, word) != 0)
            return fail();
        pos += n;
        return true;
    }

    bool string()
    {
        ++pos; // opening quote
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size())
                    return fail();
            }
            ++pos;
        }
        if (pos >= text.size())
            return fail();
        ++pos; // closing quote
        return true;
    }

    bool number()
    {
        const size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               ((text[pos] >= '0' && text[pos] <= '9') ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        return pos > start;
    }

    bool object()
    {
        ++pos; // '{'
        ws();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            ws();
            if (pos >= text.size() || text[pos] != '"' || !string())
                return fail();
            ws();
            if (pos >= text.size() || text[pos] != ':')
                return fail();
            ++pos;
            if (!value())
                return fail();
            ws();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= text.size() || text[pos] != '}')
            return fail();
        ++pos;
        return true;
    }

    bool array()
    {
        ++pos; // '['
        ws();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            if (!value())
                return fail();
            ws();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= text.size() || text[pos] != ']')
            return fail();
        ++pos;
        return true;
    }
};

bool
isValidJson(const std::string& text)
{
    JsonChecker checker{text};
    if (!checker.value())
        return false;
    checker.ws();
    return checker.pos == checker.text.size();
}

/** Restore the process-global telemetry state on scope exit so one
 *  test's enablement can never leak into another. */
struct TelemetryGuard {
    ~TelemetryGuard()
    {
        obs::setMetricsEnabled(false);
        obs::traceClose();
        obs::metricsReset();
    }
};

ParallelCampaignConfig
obsConfig(int shards, WorkerMode mode)
{
    ParallelCampaignConfig config;
    config.campaign.virtualBudget = 60ll * 60 * 1000;
    config.campaign.maxIterations = 48;
    config.campaign.coverageComponent = "ortlite";
    config.campaign.sampleEveryMinutes = 10;
    config.shards = shards;
    config.workerMode = mode;
    config.masterSeed = 2023;
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

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsMetrics, HistogramBucketsByBitWidth)
{
    obs::HistogramData h;
    h.observe(0);
    h.observe(1);
    h.observe(2);
    h.observe(3);
    h.observe(1u << 20);
    EXPECT_EQ(h.count, 5u);
    EXPECT_EQ(h.sum, 6u + (1u << 20));
    EXPECT_EQ(h.buckets[0], 1u); // 0
    EXPECT_EQ(h.buckets[1], 1u); // 1
    EXPECT_EQ(h.buckets[2], 2u); // 2, 3
    EXPECT_EQ(h.buckets[21], 1u); // 2^20
}

TEST(ObsMetrics, MergeIsCommutativeAndDeterministic)
{
    MetricsSnapshot a;
    a.counters["x"] = 3;
    a.gauges["g"] = 7;
    a.histograms["h"].observe(4);
    MetricsSnapshot b;
    b.counters["x"] = 2;
    b.counters["y"] = 1;
    b.gauges["g"] = 5;
    b.histograms["h"].observe(100);

    MetricsSnapshot ab = a;
    ab.mergeFrom(b);
    MetricsSnapshot ba = b;
    ba.mergeFrom(a);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.counters["x"], 5u);
    EXPECT_EQ(ab.counters["y"], 1u);
    EXPECT_EQ(ab.gauges["g"], 7); // max wins
    EXPECT_EQ(ab.histograms["h"].count, 2u);
    // Byte-identical canonical JSON for equal snapshots.
    EXPECT_EQ(ab.renderJson(), ba.renderJson());
    EXPECT_TRUE(isValidJson(ab.renderJson()));
}

TEST(ObsMetrics, DisabledRecordingIsANoOp)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(false);
    obs::metricsReset();
    obs::counterAdd("obs_test.noop");
    obs::gaugeSet("obs_test.noop.g", 1);
    obs::histObserve("obs_test.noop.h", 1);
    const auto snapshot = obs::metricsSnapshot();
    EXPECT_EQ(snapshot.counters.count("obs_test.noop"), 0u);
}

TEST(ObsMetrics, ShardsFromManyThreadsFoldDeterministically)
{
    TelemetryGuard guard;
    obs::metricsReset();
    obs::setMetricsEnabled(true);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 100; ++i) {
                obs::counterAdd("obs_test.threads");
                obs::histObserve("obs_test.threads.h",
                                 static_cast<uint64_t>(i));
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    const auto snapshot = obs::metricsSnapshot();
    EXPECT_EQ(snapshot.counters.at("obs_test.threads"), 400u);
    EXPECT_EQ(snapshot.histograms.at("obs_test.threads.h").count, 400u);
    // Drain clears; external contributions fold back in.
    const auto drained = obs::metricsDrain();
    EXPECT_EQ(drained.counters.at("obs_test.threads"), 400u);
    EXPECT_TRUE(obs::metricsSnapshot().counters.empty());
    obs::metricsMergeExternal(drained);
    EXPECT_EQ(obs::metricsSnapshot().counters.at("obs_test.threads"),
              400u);
}

// ---------------------------------------------------------------------------
// Wire telemetry frames
// ---------------------------------------------------------------------------

TEST(ObsWire, TelemetryFrameRoundTrips)
{
    fuzz::wire::TelemetryFrame frame;
    frame.shard = 3;
    frame.round = 7;
    frame.iters = 120;
    frame.bugs = 4;
    frame.hits = 999;
    frame.metrics.counters["campaign.iterations"] = 120;
    frame.metrics.gauges["fabric.workers"] = -2;
    frame.metrics.histograms["phase.gen"].observe(33);
    frame.metrics.histograms["phase.gen"].observe(0);

    const std::string encoded = fuzz::wire::encodeTelemetry(frame);
    const auto back = fuzz::wire::decodeTelemetry(encoded);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->shard, frame.shard);
    EXPECT_EQ(back->round, frame.round);
    EXPECT_EQ(back->iters, frame.iters);
    EXPECT_EQ(back->bugs, frame.bugs);
    EXPECT_EQ(back->hits, frame.hits);
    EXPECT_EQ(back->metrics, frame.metrics);
    // Re-encoding is byte-identical (snapshot maps are sorted).
    EXPECT_EQ(fuzz::wire::encodeTelemetry(*back), encoded);
}

TEST(ObsWire, TelemetryDecodeIsLenientNeverThrows)
{
    using fuzz::wire::decodeTelemetry;
    // Garbage and truncation yield nullopt — telemetry is advisory.
    EXPECT_FALSE(decodeTelemetry("").has_value());
    EXPECT_FALSE(decodeTelemetry("nnsmith-telemetry 2\nend-telemetry\n")
                     .has_value());
    EXPECT_FALSE(decodeTelemetry("nnsmith-telemetry 1\n").has_value());
    EXPECT_FALSE(
        decodeTelemetry("nnsmith-telemetry 1\nend-telemetry\n")
            .has_value()); // no heartbeat
    EXPECT_FALSE(decodeTelemetry("nnsmith-telemetry 1\nheartbeat 0 x 0 "
                                 "0 0\nend-telemetry\n")
                     .has_value());
    // Unknown line kinds are skipped, not fatal: a newer worker may
    // emit fields this coordinator predates.
    const auto frame = decodeTelemetry(
        "nnsmith-telemetry 1\nheartbeat 1 2 3 4 5\nfuture-field "
        "whatever\nend-telemetry\n");
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->shard, 1);
    EXPECT_EQ(frame->iters, 3u);
}

// ---------------------------------------------------------------------------
// Progress aggregation
// ---------------------------------------------------------------------------

TEST(ObsProgress, TracksWorkerStatesDistinctly)
{
    obs::ProgressOptions options;
    options.printToStderr = false;
    ProgressAggregator progress(options);
    progress.attach(3, "test");
    progress.onHeartbeat(obs::Heartbeat{0, 0, 10, 1, 5});
    progress.onStalled(1);
    progress.onCrashed(2);
    progress.onStalled(2); // crashed stays crashed, not stalled

    const auto workers = progress.workers();
    ASSERT_EQ(workers.size(), 3u);
    EXPECT_EQ(workers[0].state, ProgressAggregator::WorkerState::kOk);
    EXPECT_EQ(workers[0].iters, 10u);
    EXPECT_EQ(workers[1].state,
              ProgressAggregator::WorkerState::kStalled);
    EXPECT_EQ(workers[2].state,
              ProgressAggregator::WorkerState::kCrashed);
    EXPECT_EQ(workers[2].respawns, 1);
    EXPECT_EQ(progress.stallEvents(), 1u);
    EXPECT_EQ(progress.heartbeats(), 1u);
    // Out-of-range shards are dropped, not fatal.
    progress.onHeartbeat(obs::Heartbeat{99, 0, 1, 0, 0});
    EXPECT_EQ(progress.heartbeats(), 1u);
    progress.finish();
}

// ---------------------------------------------------------------------------
// The inertness contract: telemetry on vs off, byte-identical merges
// ---------------------------------------------------------------------------

TEST(ObsInertness, TelemetryOnOffIdentityAcrossModesAndShards)
{
    const auto trace_path =
        std::filesystem::path(testing::TempDir()) /
        "nnsmith-obs-trace.jsonl";
    std::filesystem::remove(trace_path);

    // Reference: telemetry fully off.
    const auto reference =
        fuzz::runParallelCampaign(obsConfig(1, WorkerMode::kThread));
    EXPECT_GT(reference.iterations, 0u);

    TelemetryGuard guard;
    obs::metricsReset();
    obs::setMetricsEnabled(true);
    obs::traceOpen(trace_path.string());
    for (const auto mode : {WorkerMode::kThread, WorkerMode::kProcess}) {
        for (const int shards : {1, 2, 4}) {
            auto config = obsConfig(shards, mode);
            obs::ProgressOptions options;
            options.printToStderr = false;
            // Sanitizer builds run rounds 10x slower; a stall flag
            // here would be legitimate but is not what this test is
            // about, so keep the threshold far above any real round.
            options.stallAfterMs = 10 * 60 * 1000;
            config.progress =
                std::make_shared<ProgressAggregator>(options);
            const auto result = fuzz::runParallelCampaign(config);
            EXPECT_EQ(renderCampaignResult(reference),
                      renderCampaignResult(result));
            // Liveness reached the aggregator on every cell.
            EXPECT_GT(config.progress->heartbeats(), 0u)
                << "mode=" << fuzz::workerModeName(mode)
                << " shards=" << shards;
            EXPECT_TRUE(result.workerFaults.empty());
            EXPECT_EQ(result.respawns, 0u);
        }
    }
    // The campaigns recorded real metrics while staying inert.
    const auto snapshot = obs::metricsSnapshot();
    EXPECT_GT(snapshot.counters.at("campaign.iterations"), 0u);
    EXPECT_GT(snapshot.histograms.count("phase.gen"), 0u);
    EXPECT_GT(snapshot.histograms.count("phase.exec:OrtLite"), 0u);
    EXPECT_TRUE(isValidJson(snapshot.renderJson()));

    // Every trace line is standalone valid JSON with the chrome-trace
    // complete-span fields.
    obs::traceClose();
    std::ifstream in(trace_path);
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_TRUE(isValidJson(line)) << "line " << lines << ": " << line;
        EXPECT_NE(line.find("\"ph\":\"X\""), std::string::npos);
        EXPECT_NE(line.find("\"ts\":"), std::string::npos);
        EXPECT_NE(line.find("\"dur\":"), std::string::npos);
    }
    EXPECT_GT(lines, 0u);
    std::filesystem::remove(trace_path);
}

// ---------------------------------------------------------------------------
// Stalled-worker detection
// ---------------------------------------------------------------------------

class ObsStall : public testing::TestWithParam<WorkerMode> {};

TEST_P(ObsStall, SleepingWorkerIsFlaggedStalledAndCampaignCompletes)
{
    const auto reference =
        fuzz::runParallelCampaign(obsConfig(1, WorkerMode::kThread));

    auto config = obsConfig(2, GetParam());
    const uint64_t slow_seed =
        fuzz::deriveIterationSeed(config.masterSeed, 3);
    const auto inner = config.fuzzerFactory;
    config.fuzzerFactory = [inner, slow_seed](uint64_t seed) {
        if (seed == slow_seed)
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return inner(seed);
    };
    obs::ProgressOptions options;
    options.printToStderr = false;
    options.stallAfterMs = 50;
    config.progress = std::make_shared<ProgressAggregator>(options);
    const auto result = fuzz::runParallelCampaign(config);

    // The sleeper was flagged stalled — distinctly from a crash — and
    // the campaign still merged byte-identically.
    EXPECT_EQ(renderCampaignResult(reference), renderCampaignResult(result));
    EXPECT_GT(config.progress->stallEvents(), 0u);
    EXPECT_EQ(result.respawns, 0u);
    bool saw_stall_fault = false;
    for (const auto& fault : result.workerFaults) {
        EXPECT_NE(fault.kind, "crash");
        saw_stall_fault = saw_stall_fault || fault.kind == "stall";
    }
    EXPECT_TRUE(saw_stall_fault);
}

INSTANTIATE_TEST_SUITE_P(Modes, ObsStall,
                         testing::Values(WorkerMode::kThread,
                                         WorkerMode::kProcess));

// ---------------------------------------------------------------------------
// Fault surfacing: respawns and error frames in CampaignResult
// ---------------------------------------------------------------------------

TEST(ObsFaults, CrashRespawnIsCountedInTheResult)
{
    const auto marker = std::filesystem::path(testing::TempDir()) /
                        "nnsmith-obs-crash-marker";
    std::filesystem::remove(marker);
    const auto reference =
        fuzz::runParallelCampaign(obsConfig(1, WorkerMode::kThread));

    auto config = obsConfig(2, WorkerMode::kProcess);
    const uint64_t crash_seed =
        fuzz::deriveIterationSeed(config.masterSeed, 7);
    const auto inner = config.fuzzerFactory;
    config.fuzzerFactory = [inner, crash_seed,
                            marker](uint64_t seed) {
        if (seed == crash_seed && !std::filesystem::exists(marker)) {
            std::ofstream(marker).put('x');
            ::kill(::getpid(), SIGKILL);
        }
        return inner(seed);
    };
    const auto result = fuzz::runParallelCampaign(config);
    EXPECT_TRUE(std::filesystem::exists(marker));
    EXPECT_EQ(renderCampaignResult(reference), renderCampaignResult(result));
    EXPECT_EQ(result.respawns, 1u);
    ASSERT_FALSE(result.workerFaults.empty());
    bool saw_crash = false;
    for (const auto& fault : result.workerFaults)
        saw_crash = saw_crash || fault.kind == "crash";
    EXPECT_TRUE(saw_crash);
    std::filesystem::remove(marker);
}

class ObsFaultModes : public testing::TestWithParam<WorkerMode> {};

TEST_P(ObsFaultModes, TransientWorkerErrorIsRetriedAndSurfaced)
{
    const auto marker =
        std::filesystem::path(testing::TempDir()) /
        (std::string("nnsmith-obs-error-marker-") +
         fuzz::workerModeName(GetParam()));
    std::filesystem::remove(marker);
    const auto reference =
        fuzz::runParallelCampaign(obsConfig(1, WorkerMode::kThread));

    auto config = obsConfig(2, GetParam());
    const uint64_t error_seed =
        fuzz::deriveIterationSeed(config.masterSeed, 5);
    const auto inner = config.fuzzerFactory;
    config.fuzzerFactory = [inner, error_seed, marker](uint64_t seed)
        -> std::unique_ptr<fuzz::Fuzzer> {
        if (seed == error_seed && !std::filesystem::exists(marker)) {
            std::ofstream(marker).put('x');
            throw std::runtime_error("transient hiccup");
        }
        return inner(seed);
    };
    // A transient error does not abort the campaign: the worker is
    // rebuilt (a fresh process, or fresh backends and collector on the
    // same thread), the block re-runs deterministically without the
    // failed attempt's partial records, and the incident is surfaced
    // as a WorkerFault.
    const auto result = fuzz::runParallelCampaign(config);
    EXPECT_TRUE(std::filesystem::exists(marker));
    EXPECT_EQ(renderCampaignResult(reference), renderCampaignResult(result));
    bool saw_error = false;
    for (const auto& fault : result.workerFaults) {
        if (fault.kind == "error") {
            saw_error = true;
            EXPECT_NE(fault.detail.find("transient hiccup"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(saw_error);
    std::filesystem::remove(marker);
}

INSTANTIATE_TEST_SUITE_P(Modes, ObsFaultModes,
                         testing::Values(WorkerMode::kThread,
                                         WorkerMode::kProcess));

// ---------------------------------------------------------------------------
// bench_util flag parsing
// ---------------------------------------------------------------------------

TEST(ObsBenchFlags, UnknownFlagsAreRejected)
{
    const char* bad[] = {"bench", "--metrics-outt", "x.json"};
    EXPECT_THROW(bench::parseArgsOrThrow(3, const_cast<char**>(bad)),
                 FatalError);

    const char* dangling[] = {"bench", "--metrics-out"};
    EXPECT_THROW(
        bench::parseArgsOrThrow(2, const_cast<char**>(dangling)),
        FatalError);

    const char* good[] = {"bench",         "--seed",    "7",
                          "--metrics-out", "m.json",    "--trace-out",
                          "t.jsonl",       "--progress", "--out",
                          "o.json"};
    const auto options =
        bench::parseArgsOrThrow(10, const_cast<char**>(good));
    EXPECT_EQ(options.seed, 7u);
    EXPECT_EQ(options.metricsOut, "m.json");
    EXPECT_EQ(options.traceOut, "t.jsonl");
    EXPECT_EQ(options.outPath, "o.json");
    EXPECT_TRUE(options.progress);
}

} // namespace
} // namespace nnsmith
