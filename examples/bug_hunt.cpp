/**
 * @file
 * Bug-hunt campaign: run the NNSmith fuzzer against all backends for a
 * configurable number of iterations and print every *unique* bug with
 * the paper-style classification (system, phase, symptom).
 *
 *   ./examples/bug_hunt [iterations] [seed]
 */
#include <cstdio>
#include <cstdlib>
#include <map>

#include "backends/defects.h"
#include "fuzz/parallel_campaign.h"

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    const size_t iterations =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400;
    const uint64_t seed =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 7ll * 24 * 60 * 60 * 1000; // 1 week
    config.campaign.maxIterations = iterations;
    config.campaign.sampleEveryMinutes = 24 * 60;
    config.masterSeed = seed;
    config.fuzzerFactory = [](uint64_t iteration_seed) {
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 10;
        return std::make_unique<fuzz::NNSmithFuzzer>(options,
                                                     iteration_seed);
    };
    config.backendFactory = difftest::makeAllBackends;
    const auto result = fuzz::runParallelCampaign(config);

    std::printf("ran %zu test cases, found %zu unique bug signals\n\n",
                result.iterations, result.bugs.size());
    std::printf("%-52s %-14s %s\n", "dedup key", "kind", "defects hit");
    for (const auto& [key, bug] : result.bugs) {
        std::string defects;
        for (const auto& d : bug.defects)
            defects += d + " ";
        std::printf("%-52s %-14s %s\n", key.c_str(), bug.kind.c_str(),
                    defects.c_str());
    }

    // Ground-truth accounting against the seeded defect table.
    const auto& registry = backends::DefectRegistry::instance();
    std::printf("\nseeded defects discovered: %zu / %zu\n",
                result.defectsFound.size(), registry.all().size());
    std::map<std::string, int> per_system;
    for (const auto& id : result.defectsFound) {
        const auto* defect = registry.find(id);
        if (defect != nullptr)
            per_system[backends::systemName(defect->system)]++;
    }
    for (const auto& [system, count] : per_system)
        std::printf("  %-18s %d\n", system.c_str(), count);
    return 0;
}
