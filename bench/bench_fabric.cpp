/**
 * @file
 * Campaign-fabric identity bench: thread vs process workers.
 *
 * Runs the same minimizing NNSmith-vs-ONNXRuntime campaign across the
 * full worker matrix {thread, process} × shards {1, 2, 4} and verifies
 * that every cell is identical to the first: byte-equal
 * renderCampaignResult text (coverage site keys, full bug documents,
 * instance keys, defects, the virtual-time series) plus a
 * byte-identical minimized-repro report tree (bench/identity.h). This
 * is the executable statement of the fabric's core contract: records
 * cross process boundaries in the canonical wire format (fuzz/wire.h),
 * so *where* a shard runs can never leak into *what* the campaign
 * concludes. Exits nonzero on any mismatch.
 *
 * BENCH_fabric.json at the repo root is a committed record of this
 * output; CI re-runs the matrix with --iters 60 on every push.
 *
 *   ./bench/bench_fabric [--seed N] [--iters N] [--minutes N]
 *                        [--out FILE]
 */
#include <filesystem>
#include <thread>

#include "bench_util.h"
#include "identity.h"

namespace {

using namespace nnsmith;

fuzz::ParallelCampaignConfig
campaignFor(int shards, fuzz::WorkerMode mode,
            const bench::BenchOptions& options,
            const std::string& report_dir)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget =
        static_cast<VirtualMs>(options.minutes) * 60 * 1000;
    config.campaign.maxIterations = options.iters;
    config.campaign.coverageComponent = "ortlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    config.shards = shards;
    config.workerMode = mode;
    config.masterSeed = options.seed;
    config.fuzzerFactory = [](uint64_t seed) {
        fuzz::NNSmithFuzzer::Options fuzzer_options;
        fuzzer_options.generator.targetOpNodes = 10;
        // Value search off, as in the committed record: bench_parallel
        // holds the search (seed-pure under its default iteration cap)
        // to the same identity.
        fuzzer_options.runValueSearch = false;
        return std::make_unique<fuzz::NNSmithFuzzer>(fuzzer_options,
                                                     seed);
    };
    config.backendFactory = [] {
        std::vector<std::unique_ptr<backends::Backend>> owned;
        owned.push_back(backends::makeOrtLite());
        return owned;
    };
    return config;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    // Identity saturates quickly.
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/120);

    const auto base = std::filesystem::temp_directory_path() /
                      "nnsmith-bench-fabric";
    std::filesystem::remove_all(base);
    bench::IdentityMatrix matrix;
    for (const auto& [mode, shards] : bench::workerMatrix()) {
        const auto report_dir =
            base / (std::string(fuzz::workerModeName(mode)) + "-" +
                    std::to_string(shards));
        matrix.run(campaignFor(shards, mode, options, report_dir.string()));
    }
    // Guard against a vacuous pass: the cells must have written reports.
    const bool wrote_reports =
        std::filesystem::exists(base / "thread-1" / "index.tsv");
    std::filesystem::remove_all(base);

    const bool all_identical = matrix.allIdentical();
    const auto& reference = matrix.reference();
    const bool ok = all_identical && !reference.bugs.empty() && wrote_reports;
    std::printf("fabric identity (merged result + report tree) across "
                "{thread, process} x {1, 2, 4}: %s\n",
                ok ? "yes" : "NO — BUG");
    const auto& cells = matrix.cells();

    FILE* out = options.outPath.empty()
                    ? stdout
                    : std::fopen(options.outPath.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", options.outPath.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"fabric_identity\",\n");
    std::fprintf(out, "  \"fuzzer\": \"NNSmith\",\n");
    std::fprintf(out, "  \"component\": \"ortlite\",\n");
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"iterations\": %zu,\n",
                 reference.iterations);
    std::fprintf(out, "  \"bugs\": %zu,\n", reference.bugs.size());
    std::fprintf(out, "  \"coverage\": %zu,\n",
                 reference.coverAll.count());
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(out, "  \"cells\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
        std::fprintf(out,
                     "    {\"worker_mode\": \"%s\", \"shards\": %d, "
                     "\"wall_seconds\": %.3f, \"identical\": %s}%s\n",
                     fuzz::workerModeName(cells[i].mode),
                     cells[i].shards, cells[i].seconds,
                     cells[i].identical ? "true" : "false",
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (out != stdout)
        std::fclose(out);
    return ok ? 0 : 1;
}
