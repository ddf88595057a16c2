/** Tests for corpus-guided mutation (fuzz/mutator.h): pool loading
 *  over the golden mini-corpus, mutation determinism (same seed, same
 *  mutant), the 500-mutant validity property (every mutant passes
 *  graph/validate and every mutated sequence stays inside the owning
 *  registry), mutant-repro canonicality (render -> parse -> render is
 *  byte-identical), and seed-determinism of the CorpusGuidedFuzzer
 *  end to end. */
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "backends/graph_pass.h"
#include "corpus/corpus.h"
#include "corpus/parser.h"
#include "difftest/oracle.h"
#include "fuzz/mutator.h"
#include "graph/validate.h"
#include "tirlite/tir_passes.h"

namespace nnsmith {
namespace {

std::string
goldenDir()
{
    return (std::filesystem::path(NNSMITH_TEST_DATA_DIR) / "corpus")
        .string();
}

void
expectSameCase(const fuzz::GraphSeedCase& a, const fuzz::GraphSeedCase& b)
{
    EXPECT_EQ(a.graph.toString(), b.graph.toString());
    ASSERT_EQ(a.leaves.size(), b.leaves.size());
    for (const auto& [id, tensor] : a.leaves) {
        const auto it = b.leaves.find(id);
        ASSERT_NE(it, b.leaves.end());
        ASSERT_EQ(tensor.numel(), it->second.numel());
        EXPECT_EQ(tensor.dtype(), it->second.dtype());
        for (int64_t i = 0; i < tensor.numel(); ++i)
            EXPECT_EQ(tensor.scalarAt(i), it->second.scalarAt(i));
    }
}

TEST(Mutator, PoolLoadsEveryGoldenEntryAndKind)
{
    const auto pool = fuzz::MutationPool::fromCorpusDir(goldenDir());
    EXPECT_EQ(pool.size(),
              corpus::loadCorpusIndex(goldenDir()).size());
    // The golden corpus spans all three repro kinds, so the pool must
    // offer graph, TIR-sequence, and graph-sequence seeds.
    EXPECT_FALSE(pool.graphSeeds().empty());
    EXPECT_FALSE(pool.tirSeqSeeds().empty());
    EXPECT_FALSE(pool.graphSeqSeeds().empty());
    EXPECT_FALSE(pool.empty());
}

TEST(Mutator, GraphMutationIsSeedDeterministic)
{
    const auto pool = fuzz::MutationPool::fromCorpusDir(goldenDir());
    ASSERT_FALSE(pool.graphSeeds().empty());
    uint64_t salt = 0;
    for (const auto& seed_case : pool.graphSeeds()) {
        for (uint64_t s = 0; s < 16; ++s) {
            Rng a(1000 + salt + s), b(1000 + salt + s);
            expectSameCase(fuzz::mutateGraphCase(seed_case, a),
                           fuzz::mutateGraphCase(seed_case, b));
        }
        ++salt;
    }
    // Different seeds must actually explore: across the pool, at least
    // one pair of seeds yields structurally different mutants.
    bool diverged = false;
    for (const auto& seed_case : pool.graphSeeds()) {
        Rng a(1), b(2);
        diverged = diverged ||
                   fuzz::mutateGraphCase(seed_case, a).graph.toString() !=
                       fuzz::mutateGraphCase(seed_case, b).graph.toString();
    }
    EXPECT_TRUE(diverged);
}

TEST(Mutator, SequenceMutationIsSeedDeterministic)
{
    const auto pool = fuzz::MutationPool::fromCorpusDir(goldenDir());
    for (const auto& seed : pool.tirSeqSeeds()) {
        Rng a(7), b(7);
        EXPECT_EQ(backends::mutatePassSequence("TVMLite", seed.sequence, a),
                  backends::mutatePassSequence("TVMLite", seed.sequence, b));
    }
    for (const auto& seed : pool.graphSeqSeeds()) {
        Rng a(7), b(7);
        EXPECT_EQ(
            backends::mutatePassSequence(seed.backend, seed.sequence, a),
            backends::mutatePassSequence(seed.backend, seed.sequence, b));
    }
}

TEST(Mutator, FiveHundredMutantsAllValidate)
{
    // The validity property of the tentpole: every mutant — including
    // mutants of mutants, where drift compounds — passes
    // graph/validate, so corpus-guided campaigns never execute an
    // ill-typed case.
    const auto pool = fuzz::MutationPool::fromCorpusDir(goldenDir());
    ASSERT_FALSE(pool.graphSeeds().empty());
    Rng rng(2023);
    std::vector<fuzz::GraphSeedCase> frontier = pool.graphSeeds();
    size_t checked = 0;
    while (checked < 500) {
        for (auto& seed_case : frontier) {
            seed_case = fuzz::mutateGraphCase(seed_case, rng);
            const auto verdict = graph::validate(seed_case.graph);
            ASSERT_TRUE(verdict.ok())
                << verdict.errors.front() << "\n"
                << seed_case.graph.toString();
            ASSERT_GT(seed_case.graph.numOpNodes(), 0);
            if (++checked >= 500)
                break;
        }
    }
}

TEST(Mutator, MutatedSequencesStayInsideTheOwningRegistry)
{
    Rng rng(5);
    std::set<std::string> tir_names;
    for (const auto& pass : tirlite::tirPasses())
        tir_names.insert(pass.name);
    auto sequence = backends::defaultPipeline("TVMLite");
    for (int i = 0; i < 200; ++i) {
        sequence = backends::mutatePassSequence("TVMLite", sequence, rng);
        ASSERT_FALSE(sequence.empty());
        for (const auto& name : sequence)
            ASSERT_TRUE(tir_names.count(name) != 0) << name;
    }
    for (const std::string backend : {"OrtLite", "TrtLite"}) {
        std::set<std::string> names;
        for (const auto& pass : backends::graphPasses(backend))
            names.insert(pass.name);
        auto graph_sequence = backends::defaultPipeline(backend);
        for (int i = 0; i < 200; ++i) {
            graph_sequence = backends::mutatePassSequence(
                backend, graph_sequence, rng);
            ASSERT_FALSE(graph_sequence.empty());
            for (const auto& name : graph_sequence)
                ASSERT_TRUE(names.count(name) != 0)
                    << backend << "/" << name;
        }
    }
}

TEST(Mutator, MutantReprosRoundTripByteIdentically)
{
    // Mutants are rebuilt densely in topological order, so a mutant
    // rendered as a repro is already canonical: parse -> render
    // reproduces the bytes exactly, like the golden files themselves.
    const auto dir = goldenDir();
    uint64_t salt = 0;
    size_t graph_repros = 0;
    for (const auto& entry : corpus::loadCorpusIndex(dir)) {
        const std::string path =
            (std::filesystem::path(dir) / entry.file).string();
        auto bug = corpus::parseRepro(corpus::readCorpusFile(path));
        if (bug.graphRepro == nullptr)
            continue;
        ++graph_repros;
        Rng rng(31 + salt++);
        fuzz::GraphSeedCase seed_case = {bug.graphRepro->graph,
                                         bug.graphRepro->leaves};
        for (int k = 0; k < 8; ++k) {
            seed_case = fuzz::mutateGraphCase(seed_case, rng);
            auto repro = std::make_shared<fuzz::GraphRepro>();
            repro->graph = seed_case.graph;
            repro->leaves = seed_case.leaves;
            fuzz::BugRecord mutant_bug = bug;
            mutant_bug.graphRepro = std::move(repro);
            const std::string rendered = corpus::renderRepro(mutant_bug);
            EXPECT_EQ(corpus::renderRepro(corpus::parseRepro(rendered)),
                      rendered)
                << entry.file << " mutant " << k;
        }
    }
    EXPECT_GT(graph_repros, 0u);
}

TEST(Mutator, CorpusGuidedFuzzerIsSeedDeterministic)
{
    auto pool = std::make_shared<const fuzz::MutationPool>(
        fuzz::MutationPool::fromCorpusDir(goldenDir()));
    auto make_inner = [] {
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 5;
        options.runValueSearch = false;
        return std::make_unique<fuzz::NNSmithFuzzer>(options, 11);
    };
    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> backend_list;
    for (const auto& backend : owned)
        backend_list.push_back(backend.get());

    fuzz::CorpusGuidedFuzzer::Options options;
    options.mutationRate = 1.0; // force every iteration to mutate
    fuzz::CorpusGuidedFuzzer a(make_inner(), pool, 13, options);
    fuzz::CorpusGuidedFuzzer b(make_inner(), pool, 13, options);
    EXPECT_EQ(a.name(), "NNSmith+corpus");
    for (int i = 0; i < 6; ++i) {
        const auto oa = a.iterate(backend_list);
        const auto ob = b.iterate(backend_list);
        EXPECT_EQ(oa.produced, ob.produced);
        EXPECT_EQ(oa.cost, ob.cost);
        EXPECT_EQ(oa.instanceKeys, ob.instanceKeys);
        ASSERT_EQ(oa.bugs.size(), ob.bugs.size());
        for (size_t k = 0; k < oa.bugs.size(); ++k)
            EXPECT_EQ(oa.bugs[k].dedupKey, ob.bugs[k].dedupKey);
    }
}

} // namespace
} // namespace nnsmith
