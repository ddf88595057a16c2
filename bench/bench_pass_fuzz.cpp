/**
 * @file
 * Pass-sequence fuzzing throughput + determinism harness.
 *
 * Three sections, all wall-clock timed:
 *
 *  1. "sequence fuzzing": a serial PassSequenceFuzzer loop
 *     (fuzz/pass_fuzzer.h) — sequences/sec, plus the growth of
 *     distinct pass-sequence coverage bins ("tvmlite/pass/seq/..."),
 *     sampled every 10 iterations. The committed baseline must show
 *     more than one distinct bin discovered per 10 iterations.
 *
 *  2. "sharded determinism": the same fuzzer through the parallel
 *     campaign runner at shards=1 and shards=2; the merged results
 *     must render byte-identically (fuzz::renderCampaignResult; the
 *     fuzzer is iteration-independent).
 *
 *  3. "campaign": the end-to-end NNSmith campaign of
 *     bench_kernels.cpp (identical heavy-tensor generator config and
 *     iteration-capped value search) with TVMLite in pass-fuzz mode,
 *     recorded as iters/sec.
 *
 * BENCH_pass_fuzz.json at the repo root is a committed record of this
 * output (see DESIGN.md "TIR pass pipeline & sequence fuzzing").
 *
 *   ./bench/bench_pass_fuzz [--seed N] [--iters N] [--shards N]
 *                           [--out FILE]
 */
#include <thread>

#include "bench_util.h"
#include "json.h"

namespace {

using namespace nnsmith;
using bench::Clock;
using bench::secondsSince;

size_t
seqBinsRegistered()
{
    return coverage::CoverageRegistry::instance().sitesRegistered(
        "tvmlite/pass/seq");
}

/** One sample of the distinct-bin growth curve. */
struct BinPoint {
    size_t iterations;
    size_t bins;
};

fuzz::ParallelCampaignConfig
passFuzzCampaign(int shards, uint64_t seed, size_t iters,
                 fuzz::WorkerMode mode = fuzz::WorkerMode::kThread)
{
    auto config =
        bench::campaignConfig(seed, iters, "tvmlite",
                              bench::passSequenceFactory(), bench::noBackends);
    config.shards = shards;
    config.workerMode = mode;
    return config;
}

/**
 * The bench_kernels.cpp campaign (same generator/search config — see
 * that file for the workload rationale) with TVMLite running
 * randomized pass sequences.
 */
double
campaignItersPerSec(uint64_t seed, size_t iters)
{
    auto config = bench::campaignConfig(
        seed, iters, "tvmlite", bench::heavyTensorFactory(),
        [seed] {
            auto owned = difftest::makeAllBackends();
            owned[1] = backends::makeTvmLite(/*pass_fuzz_seed=*/seed | 1);
            return owned;
        });

    const auto start = Clock::now();
    const auto result = fuzz::runParallelCampaign(config);
    const double seconds = secondsSince(start);
    std::printf("campaign (pass-fuzz TVMLite): %zu iters in %.3fs "
                "(%.3f iters/sec), %zu bugs, coverage %zu\n",
                result.iterations, seconds,
                static_cast<double>(result.iterations) / seconds,
                result.bugs.size(), result.coverAll.count());
    return static_cast<double>(result.iterations) / seconds;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    // Bin discovery saturates well before 300 iterations.
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/300);

    // ---- 1. serial sequence-fuzzing throughput + bin growth ----------
    coverage::CoverageRegistry::instance().resetHits();
    fuzz::PassSequenceFuzzer fuzzer(options.seed);
    std::vector<BinPoint> series;
    const auto start = Clock::now();
    for (size_t i = 1; i <= options.iters; ++i) {
        fuzzer.iterate({});
        if (i % 10 == 0)
            series.push_back(BinPoint{i, seqBinsRegistered()});
    }
    const double fuzz_seconds = secondsSince(start);
    const size_t bins = seqBinsRegistered();
    const double bins_per_10_iters =
        static_cast<double>(bins) /
        (static_cast<double>(options.iters) / 10.0);
    std::printf("sequence fuzzing: %zu iters in %.3fs (%.0f seq/sec), "
                "%zu distinct seq bins (%.2f per 10 iters)\n",
                options.iters, fuzz_seconds,
                static_cast<double>(options.iters) / fuzz_seconds, bins,
                bins_per_10_iters);

    // ---- 2. sharded determinism --------------------------------------
    const auto serial = fuzz::runParallelCampaign(
        passFuzzCampaign(1, options.seed, options.iters));
    const auto sharded = fuzz::runParallelCampaign(passFuzzCampaign(
        std::max(2, options.shards), options.seed, options.iters,
        options.workerMode));
    const bool identical = fuzz::renderCampaignResult(serial) ==
                           fuzz::renderCampaignResult(sharded);
    std::printf("sharded pass-fuzz campaign identical (1 vs %d shards): "
                "%s; %zu bugs, %zu distinct sequences\n",
                std::max(2, options.shards), identical ? "yes" : "NO — BUG",
                serial.bugs.size(), serial.instanceKeys.size());

    // ---- 3. end-to-end campaign throughput ---------------------------
    const double iters_per_sec = campaignItersPerSec(options.seed, 120);

    bench::Json json;
    json.beginObject()
        .field("bench", "pass_fuzz")
        .field("driver", "bench/bench_pass_fuzz --iters " +
                             std::to_string(options.iters) + " --seed " +
                             std::to_string(options.seed))
        .field("hardware_threads", std::thread::hardware_concurrency());
    json.key("sequence_fuzzing")
        .beginObject()
        .field("iterations", options.iters)
        .field("wall_seconds", fuzz_seconds, 3)
        .field("sequences_per_sec",
               static_cast<double>(options.iters) / fuzz_seconds, 1)
        .field("distinct_seq_bins", bins)
        .field("bins_per_10_iters", bins_per_10_iters, 2);
    json.key("bin_growth").beginArray();
    for (const auto& point : series)
        json.beginArray(true)
            .value(point.iterations)
            .value(point.bins)
            .endArray();
    json.endArray().endObject();
    json.key("sharded_campaign")
        .beginObject()
        .field("merged_results_identical", identical)
        .field("bugs", serial.bugs.size())
        .field("distinct_sequences", serial.instanceKeys.size())
        .field("pass_coverage", serial.coverPass.count())
        .endObject();
    json.key("campaign_pass_fuzz_tvmlite")
        .beginObject()
        .field("iterations", 120)
        .field("iters_per_sec", iters_per_sec, 3)
        .endObject()
        .endObject();
    if (!bench::writeJson(options.outPath, json))
        return 1;
    return identical && bins_per_10_iters > 1.0 ? 0 : 1;
}
