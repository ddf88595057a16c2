/**
 * @file
 * Quickstart: generate one valid random model, find NaN/Inf-free
 * inputs with gradient search, run differential testing across the
 * three simulated compilers, run a miniature sharded fuzzing
 * campaign, delta-debug one flagged case to a minimized repro, then
 * round-trip that repro through the regression corpus (write ->
 * parse -> replay), and print everything.
 *
 *   ./examples/quickstart [seed]
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "autodiff/grad_search.h"
#include "corpus/replay.h"
#include "difftest/oracle.h"
#include "fuzz/parallel_campaign.h"
#include "gen/generator.h"
#include "graph/validate.h"
#include "reduce/reducer.h"
#include "reduce/report.h"

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                   : 42;

    // 1. Generate a valid-by-construction 10-operator model.
    gen::GeneratorConfig config;
    config.targetOpNodes = 10;
    gen::GraphGenerator generator(config, seed);
    auto model = generator.generate();
    if (!model) {
        std::printf("generation failed for this seed; try another\n");
        return 1;
    }
    std::printf("=== generated model (seed %llu) ===\n%s\n",
                static_cast<unsigned long long>(seed),
                model->graph.toString().c_str());
    const auto validity = graph::validate(model->graph);
    std::printf("validity: %s\n", validity.summary().c_str());

    // 2. Gradient-guided value search (Algorithm 3).
    Rng rng(seed);
    autodiff::SearchConfig search_config;
    search_config.timeBudgetMs = 64.0;
    const auto search = autodiff::search(model->graph, rng, search_config);
    std::printf("\nvalue search: %s after %d iteration(s), %.2f ms\n",
                search.success ? "numerically valid inputs found"
                               : "gave up (using random values)",
                search.iterations, search.elapsedMs);
    const auto leaves =
        search.success ? search.values
                       : exec::randomLeaves(model->graph, rng);

    // 3. Differential testing across OrtLite / TVMLite / TrtLite.
    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> backend_list;
    for (auto& b : owned)
        backend_list.push_back(b.get());
    const auto result = difftest::runCase(model->graph, leaves,
                                          backend_list);
    std::printf("\n=== differential testing ===\n");
    if (!result.exportOk) {
        std::printf("exporter crashed: %s (a conversion bug!)\n",
                    result.exportCrashKind.c_str());
        return 0;
    }
    for (const auto& verdict : result.verdicts) {
        std::printf("%-10s %-12s %s\n", verdict.backend.c_str(),
                    difftest::verdictName(verdict.verdict).c_str(),
                    verdict.detail.c_str());
        if (verdict.verdict == difftest::Verdict::kWrongResult) {
            std::printf("           localized to optimizer: %s\n",
                        verdict.localizedToOptimizer ? "yes" : "no");
        }
    }
    if (!result.triggeredDefects.empty()) {
        std::printf("seeded defects triggered:");
        for (const auto& d : result.triggeredDefects)
            std::printf(" %s", d.c_str());
        std::printf("\n");
    }

    // 4. A miniature sharded campaign (fuzz/parallel_campaign.h): two
    //    worker threads fuzz OrtLite for 30 virtual minutes. The merged
    //    result is a pure function of the master seed — any --shards
    //    value yields byte-identical coverage and bugs.
    fuzz::ParallelCampaignConfig campaign;
    campaign.campaign.virtualBudget = 30ll * 60 * 1000;
    campaign.campaign.maxIterations = 40;
    campaign.campaign.coverageComponent = "ortlite";
    campaign.campaign.sampleEveryMinutes = 10;
    campaign.shards = 2;
    campaign.masterSeed = seed;
    campaign.fuzzerFactory = [](uint64_t iteration_seed) {
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 5;
        return std::make_unique<fuzz::NNSmithFuzzer>(options,
                                                     iteration_seed);
    };
    campaign.backendFactory = [] {
        std::vector<std::unique_ptr<backends::Backend>> shard_backends;
        shard_backends.push_back(backends::makeOrtLite());
        return shard_backends;
    };
    const auto merged = fuzz::runParallelCampaign(campaign);
    std::printf("\n=== sharded campaign (2 shards, 30 virtual min) ===\n");
    std::printf("iterations=%zu coverage=%zu bugs=%zu instance keys=%zu\n",
                merged.iterations, merged.coverAll.count(),
                merged.bugs.size(), merged.instanceKeys.size());

    // 5. Minimized repro (reduce/reducer.h): delta-debug the first
    //    flagged case down to the smallest subgraph that still fires
    //    the identical defect-trace fingerprint. Campaigns do this
    //    automatically with CampaignConfig::minimize (bench drivers:
    //    --minimize, plus --report-dir for on-disk repro reports).
    std::printf("\n=== minimized repro ===\n");
    fuzz::BugRecord reduced;
    bool reduced_one = false;
    std::vector<backends::Backend*> ort = {owned[0].get()};
    for (const auto& [key, bug] : merged.bugs) {
        fuzz::BugRecord minimized = bug;
        if (!reduce::minimizeBug(minimized, ort))
            continue;
        std::printf("bug %s\n  reduced %zu -> %zu op nodes; still "
                    "fires: %s\n%s\n",
                    minimized.dedupKey.c_str(), minimized.originalSize,
                    minimized.minimizedSize,
                    reduce::reproStillFires(minimized, ort) ? "yes" : "no",
                    std::get<fuzz::GraphRepro>(*minimized.repro)
                        .graph.toString()
                        .c_str());
        reduced = std::move(minimized);
        reduced_one = true;
        break;
    }
    if (!reduced_one) {
        std::printf("(no reducible flagged case this seed)\n");
        return 0;
    }

    // 6. Regression corpus (reduce/report.h + corpus/replay.h): write
    //    the minimized repro to disk, parse it back, and replay it
    //    against the live oracle — the workflow campaigns run for a
    //    whole corpus with --report-dir (write) and --corpus (replay
    //    before fresh fuzzing, verdicts into regressions.tsv).
    const auto corpus_dir = std::filesystem::temp_directory_path() /
                            "nnsmith-quickstart-corpus";
    std::filesystem::remove_all(corpus_dir);
    reduce::writeReproReports({{reduced.dedupKey, reduced}},
                              corpus_dir.string());
    const auto replay = corpus::replayCorpus(corpus_dir.string(), ort);
    corpus::writeRegressions(corpus_dir.string(), replay);
    std::printf("\n=== corpus replay ===\n");
    std::printf("wrote %s, replayed it into regressions.tsv: ",
                (corpus_dir / "index.tsv").string().c_str());
    for (const auto& outcome : replay.outcomes) {
        std::printf("%s -> %s\n", outcome.fingerprint.c_str(),
                    corpus::replayStatusName(outcome.status).c_str());
    }
    return 0;
}
