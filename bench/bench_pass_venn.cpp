/**
 * @file
 * Cross-backend pass-sequence coverage Venn — the paper's Fig. 8
 * "what does each system's bug surface share?" decomposition, lifted
 * to pass-sequence space now that all three backends draw from named
 * pass registries (backends/graph_pass.h, tirlite/tir_passes.h).
 *
 * For each backend, a sharded PassSequenceFuzzer campaign runs at
 * shards 1, 2 and 4; the merged results must be identical (byte-equal
 * renderCampaignResult text, bench/identity.h; the fuzzer is
 * iteration-independent). The sequence-coverage bins each
 * campaign explored are then reconstructed from the merged distinct
 * sequences via the shared sequenceCoverageBins() helper, and the
 * three bin sets are decomposed into the 7-region Venn. Pass names are
 * disjoint across backends, so the center region is the shared
 * structural bins (sequence-length buckets) — it must be nonempty, as
 * must every per-backend set.
 *
 * BENCH_pass_venn.json at the repo root is a committed record of this
 * output (see DESIGN.md "One pass registry, three backends").
 *
 *   ./bench/bench_pass_venn [--seed N] [--iters N] [--out FILE]
 */
#include <set>

#include "backends/graph_pass.h"
#include "bench_util.h"
#include "identity.h"
#include "json.h"

namespace {

using namespace nnsmith;

struct BackendRun {
    std::string backend;       ///< "OrtLite" | "TVMLite" | "TrtLite"
    std::string component;     ///< coverage component prefix
    fuzz::CampaignResult merged;
    std::set<std::string> bins;
    bool shardsIdentical = false;
};

fuzz::ParallelCampaignConfig
vennCampaign(const std::string& backend, const std::string& component,
             int shards, uint64_t seed, size_t iters,
             fuzz::WorkerMode mode = fuzz::WorkerMode::kThread)
{
    // TVMLite sequences run through the TIR interpreter (no backend);
    // graph-pass backends are their own differential oracle and must
    // be present in the campaign's backend list.
    auto config = bench::campaignConfig(
        seed, iters, component,
        [backend](uint64_t iteration_seed) {
            fuzz::PassSequenceFuzzer::Options options;
            options.backend = backend;
            return std::make_unique<fuzz::PassSequenceFuzzer>(
                iteration_seed, options);
        },
        [backend] {
            std::vector<std::unique_ptr<backends::Backend>> owned;
            if (backends::isGraphPassBackend(backend))
                owned.push_back(backends::makeBackend(backend));
            return owned;
        });
    config.shards = shards;
    config.workerMode = mode;
    return config;
}

/** Reconstruct the sequence-coverage bins a campaign explored from its
 *  merged instance keys ("tirseq/<joined>" for TVMLite,
 *  "passseq/<backend>/<joined>" for graph-pass backends) — the
 *  coverage registry exposes counts, not key strings. */
std::set<std::string>
binsOf(const fuzz::CampaignResult& result)
{
    std::set<std::string> bins;
    for (const auto& key : result.instanceKeys) {
        std::string joined;
        if (key.rfind("tirseq/", 0) == 0) {
            joined = key.substr(7);
        } else if (key.rfind("passseq/", 0) == 0) {
            const auto slash = key.find('/', 8);
            if (slash == std::string::npos)
                continue;
            joined = key.substr(slash + 1);
        } else {
            continue;
        }
        std::vector<std::string> sequence;
        size_t start = 0;
        while (start <= joined.size()) {
            const auto comma = joined.find(',', start);
            sequence.push_back(joined.substr(
                start,
                comma == std::string::npos ? std::string::npos
                                           : comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        for (const auto& bin : backends::sequenceCoverageBins(sequence))
            bins.insert(bin);
    }
    return bins;
}

/** The bins of @p x that are in @p y exactly when @p in_y and in @p z
 *  exactly when @p in_z: one region of the three-set Venn. */
std::set<std::string>
region(const std::set<std::string>& x, const std::set<std::string>& y,
       const std::set<std::string>& z, bool in_y, bool in_z)
{
    std::set<std::string> out;
    for (const auto& bin : x)
        if ((y.count(bin) != 0) == in_y && (z.count(bin) != 0) == in_z)
            out.insert(bin);
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    // Bin discovery saturates well before 150 iterations.
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/150);

    std::vector<BackendRun> runs = {{"OrtLite", "ortlite", {}, {}, false},
                                    {"TVMLite", "tvmlite", {}, {}, false},
                                    {"TrtLite", "trtlite", {}, {}, false}};
    for (auto& run : runs) {
        bench::IdentityMatrix matrix;
        for (const int shards : {1, 2, 4}) {
            matrix.run(vennCampaign(run.backend, run.component, shards,
                                    options.seed, options.iters,
                                    options.workerMode),
                       run.backend + " ");
        }
        run.shardsIdentical = matrix.allIdentical();
        run.merged = matrix.reference();
        run.bins = binsOf(run.merged);
        std::printf("%s: %zu iters, %zu distinct sequences, %zu seq "
                    "bins, %zu bugs; shards {1,2,4} identical: %s\n",
                    run.backend.c_str(), run.merged.iterations,
                    run.merged.instanceKeys.size(), run.bins.size(),
                    run.merged.bugs.size(),
                    run.shardsIdentical ? "yes" : "NO — BUG");
    }

    const auto& A = runs[0].bins; // OrtLite
    const auto& B = runs[1].bins; // TVMLite
    const auto& C = runs[2].bins; // TrtLite
    const auto shared_bins = region(A, B, C, true, true);
    // The six single- and two-backend regions, in JSON key order.
    const std::pair<const char*, size_t> regions[] = {
        {"only_ortlite", region(A, B, C, false, false).size()},
        {"only_tvmlite", region(B, A, C, false, false).size()},
        {"only_trtlite", region(C, A, B, false, false).size()},
        {"ortlite_tvmlite", region(A, B, C, true, false).size()},
        {"ortlite_trtlite", region(A, C, B, true, false).size()},
        {"tvmlite_trtlite", region(B, C, A, true, false).size()}};
    std::printf("\npass-sequence bin Venn (paper Fig. 8, pass space)\n");
    for (const auto& [name, size] : regions)
        std::printf("  %s=%zu", name, size);
    std::printf("\n  all_three=%zu\n", shared_bins.size());

    const bool all_nonempty = !A.empty() && !B.empty() && !C.empty();
    const bool all_identical = runs[0].shardsIdentical &&
                               runs[1].shardsIdentical &&
                               runs[2].shardsIdentical;
    const bool ok =
        all_nonempty && !shared_bins.empty() && all_identical;

    bench::Json json;
    json.beginObject()
        .field("bench", "pass_venn")
        .field("driver", "bench/bench_pass_venn --iters " +
                             std::to_string(options.iters) + " --seed " +
                             std::to_string(options.seed));
    json.key("backends").beginObject();
    for (const auto& run : runs)
        json.key(run.backend)
            .beginObject(true)
            .field("iterations", run.merged.iterations)
            .field("distinct_sequences", run.merged.instanceKeys.size())
            .field("seq_bins", run.bins.size())
            .field("bugs", run.merged.bugs.size())
            .field("shards_1_2_4_identical", run.shardsIdentical)
            .endObject();
    json.endObject();
    json.key("venn").beginObject();
    for (const auto& [name, size] : regions)
        json.field(name, size);
    json.field("all_three", shared_bins.size());
    json.key("all_three_bins").beginArray(true);
    for (const auto& bin : shared_bins)
        json.value(bin);
    json.endArray().endObject().field("ok", ok).endObject();
    if (!bench::writeJson(options.outPath, json))
        return 1;
    return ok ? 0 : 1;
}
