/** Tests for corpus-guided mutation (fuzz/mutator.h): pool loading
 *  over the golden mini-corpus, mutation determinism (same seed, same
 *  mutant), the 500-mutant validity property (every mutant passes
 *  graph/validate and every mutated sequence stays inside the owning
 *  registry), mutant-repro canonicality (render -> parse -> render is
 *  byte-identical), and seed-determinism of the CorpusGuidedFuzzer
 *  end to end. Also the shared subgraph rebuild both the mutator and
 *  the reducer build on (fuzz::rebuildGraph, fuzz/fuzzer.h). */
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "backends/graph_pass.h"
#include "baselines/concrete_builder.h"
#include "corpus/corpus.h"
#include "corpus/parser.h"
#include "difftest/oracle.h"
#include "fuzz/mutator.h"
#include "gen/generator.h"
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
expectSameCase(const fuzz::GraphRepro& a, const fuzz::GraphRepro& b)
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

/** @p bug rendered as a repro with its graph case replaced by
 *  @p repro. */
std::string
renderAs(const fuzz::BugRecord& bug, const fuzz::GraphRepro& repro)
{
    fuzz::BugRecord out = bug;
    out.repro = std::make_shared<const fuzz::Repro>(repro);
    return corpus::renderRepro(out);
}

/** The graph cases among @p pool's seeds, in pool order. */
std::vector<fuzz::GraphRepro>
graphSeeds(const fuzz::MutationPool& pool)
{
    std::vector<fuzz::GraphRepro> out;
    for (const auto& seed : pool.seeds()) {
        if (const auto* graph =
                std::get_if<fuzz::GraphRepro>(seed.repro.get()))
            out.push_back(*graph);
    }
    return out;
}

/** The first graph repro of the golden corpus (a rendering template). */
fuzz::BugRecord
goldenGraphBug()
{
    for (const auto& entry : corpus::loadCorpusIndex(goldenDir())) {
        auto bug = corpus::parseRepro(corpus::readCorpusFile(
            (std::filesystem::path(goldenDir()) / entry.file).string()));
        if (std::holds_alternative<fuzz::GraphRepro>(*bug.repro))
            return bug;
    }
    ADD_FAILURE() << "golden corpus has no graph repro";
    return {};
}

/** A raw generated case (generation-time node and value ids) bound
 *  to random leaves. */
fuzz::GraphRepro
generatedCase(uint64_t seed)
{
    gen::GeneratorConfig config;
    config.targetOpNodes = 6;
    gen::GraphGenerator generator(config, seed);
    fuzz::GraphRepro out;
    out.graph = generator.generate().value().graph;
    Rng rng(seed);
    out.leaves = exec::randomLeaves(out.graph, rng);
    return out;
}

/** Leaf value ids of @p g in topological order. */
std::vector<int>
leafValuesInOrder(const graph::Graph& g)
{
    std::vector<int> out;
    for (int id : g.topoOrder()) {
        if (g.node(id).kind != graph::NodeKind::kOp)
            out.push_back(g.node(id).outputs[0]);
    }
    return out;
}

TEST(Rebuild, KeepingEveryOpIsCanonicalAndBindsLeavesByValue)
{
    const fuzz::BugRecord bug = goldenGraphBug();
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        const fuzz::GraphRepro source = generatedCase(seed);
        const auto rebuilt = fuzz::rebuildGraph(source.graph, source.leaves);
        ASSERT_TRUE(rebuilt.has_value());
        EXPECT_EQ(rebuilt->graph.numOpNodes(), source.graph.numOpNodes());
        EXPECT_TRUE(graph::validate(rebuilt->graph).ok());

        const std::string rendered = renderAs(bug, *rebuilt);
        EXPECT_EQ(corpus::renderRepro(corpus::parseRepro(rendered)),
                  rendered)
            << "seed " << seed;

        // Leaves keep their topological order; each rebuilt leaf is
        // bound to the same values as its source leaf.
        const auto before = leafValuesInOrder(source.graph);
        const auto after = leafValuesInOrder(rebuilt->graph);
        ASSERT_EQ(before.size(), after.size());
        ASSERT_EQ(rebuilt->leaves.size(), after.size());
        for (size_t i = 0; i < before.size(); ++i) {
            const auto& a = source.leaves.at(before[i]);
            const auto& b = rebuilt->leaves.at(after[i]);
            ASSERT_EQ(a.dtype(), b.dtype());
            ASSERT_EQ(a.shape(), b.shape());
            for (int64_t k = 0; k < a.numel(); ++k)
                EXPECT_EQ(a.scalarAt(k), b.scalarAt(k));
        }
    }
}

TEST(Rebuild, StrictSubsetDropsEveryUnreadLeaf)
{
    size_t checked = 0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        const fuzz::GraphRepro source = generatedCase(seed);
        const auto ops = source.graph.opOrder();
        ASSERT_GE(ops.size(), 2u);
        // The first op in topological order reads only leaves, so
        // keeping it alone is producer-closed.
        const int first = ops.front();
        std::set<int> read;
        for (int v : source.graph.node(first).inputs)
            read.insert(source.graph.value(v).producer);
        if (read.size() == leafValuesInOrder(source.graph).size())
            continue; // every leaf is read; nothing to drop
        ++checked;

        const auto rebuilt = fuzz::rebuildGraph(
            source.graph, source.leaves, std::set<int>{first});
        ASSERT_TRUE(rebuilt.has_value());
        EXPECT_EQ(rebuilt->graph.numOpNodes(), 1);
        EXPECT_EQ(leafValuesInOrder(rebuilt->graph).size(), read.size());
        EXPECT_EQ(rebuilt->leaves.size(), read.size());
        EXPECT_TRUE(graph::validate(rebuilt->graph).ok());
    }
    EXPECT_GT(checked, 0u);
}

TEST(Rebuild, LeafOverrideRederivesDownstreamTypes)
{
    graph::Graph g;
    const int x = baselines::addInput(g, tensor::DType::kF32,
                                      tensor::Shape{{2, 3}});
    const int y = baselines::appendUnary(g, ops::UnaryKind::kSin, x,
                                         tensor::DType::kF32);
    const int z = baselines::appendUnary(g, ops::UnaryKind::kAbs, y,
                                         tensor::DType::kF32);
    (void)z;
    Rng rng(3);
    const exec::LeafValues leaves = exec::randomLeaves(g, rng);
    const int leaf = g.value(x).producer;

    fuzz::RebuildSpec spec;
    spec.leafValues.emplace(leaf, tensor::Tensor::zeros(
                                      tensor::DType::kF64,
                                      tensor::Shape{{4, 5}}));
    spec.repropagateTypes = true;
    const auto rebuilt = fuzz::rebuildGraph(g, leaves, spec);
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_TRUE(graph::validate(rebuilt->graph).ok());
    ASSERT_EQ(rebuilt->graph.values().size(), 3u);
    for (const auto& value : rebuilt->graph.values())
        EXPECT_EQ(value.type.toString(),
                  tensor::TensorType::concrete(tensor::DType::kF64,
                                               tensor::Shape{{4, 5}})
                      .toString());
    ASSERT_EQ(rebuilt->leaves.size(), 1u);
    EXPECT_EQ(rebuilt->leaves.begin()->second.shape(),
              (tensor::Shape{{4, 5}}));
}

TEST(Rebuild, UntypeableOverrideIsNullopt)
{
    // Sin has float combos only: an i32 input leaves it untypeable.
    graph::Graph g;
    const int x = baselines::addInput(g, tensor::DType::kF32,
                                      tensor::Shape{{2, 3}});
    baselines::appendUnary(g, ops::UnaryKind::kSin, x, tensor::DType::kF32);
    Rng rng(3);
    const exec::LeafValues leaves = exec::randomLeaves(g, rng);

    fuzz::RebuildSpec spec;
    spec.leafValues.emplace(g.value(x).producer,
                            tensor::Tensor::zeros(tensor::DType::kI32,
                                                  tensor::Shape{{2, 3}}));
    spec.repropagateTypes = true;
    EXPECT_FALSE(fuzz::rebuildGraph(g, leaves, spec).has_value());
}

TEST(Mutator, PoolLoadsEveryGoldenEntryAndKind)
{
    const auto pool = fuzz::MutationPool::fromCorpusDir(goldenDir());
    const auto index = corpus::loadCorpusIndex(goldenDir());
    ASSERT_EQ(pool.seeds().size(), index.size());
    std::vector<fuzz::BugRecord> parsed;
    for (const auto& entry : index) {
        parsed.push_back(corpus::parseRepro(corpus::readCorpusFile(
            (std::filesystem::path(goldenDir()) / entry.file).string())));
    }
    // The pool is kind-major in fuzz::Repro's alternative order (graph,
    // TIR sequence, graph-pass sequence) and keeps index.tsv order
    // within a kind: the order guided draws index into. The golden
    // index interleaves the kinds, so this is not index order.
    std::vector<std::string> want;
    for (size_t kind = 0; kind < std::variant_size_v<fuzz::Repro>; ++kind) {
        const size_t before = want.size();
        for (const auto& bug : parsed) {
            if (bug.repro->index() == kind)
                want.push_back(bug.dedupKey);
        }
        // The golden corpus spans all three repro kinds.
        EXPECT_GT(want.size(), before) << "no seed of kind " << kind;
    }
    std::vector<std::string> got;
    for (const auto& seed : pool.seeds())
        got.push_back(seed.dedupKey);
    EXPECT_EQ(got, want);
    std::vector<std::string> index_order;
    for (const auto& bug : parsed)
        index_order.push_back(bug.dedupKey);
    EXPECT_NE(got, index_order);
}

TEST(Mutator, GraphMutationIsSeedDeterministic)
{
    const auto seeds =
        graphSeeds(fuzz::MutationPool::fromCorpusDir(goldenDir()));
    ASSERT_FALSE(seeds.empty());
    uint64_t salt = 0;
    for (const auto& seed_case : seeds) {
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
    for (const auto& seed_case : seeds) {
        Rng a(1), b(2);
        diverged = diverged ||
                   fuzz::mutateGraphCase(seed_case, a).graph.toString() !=
                       fuzz::mutateGraphCase(seed_case, b).graph.toString();
    }
    EXPECT_TRUE(diverged);
}

TEST(Mutator, SequenceMutationIsSeedDeterministic)
{
    // TVMLite seeds are TIR sequences, OrtLite/TrtLite seeds graph-pass
    // sequences; the seed's backend names the registry either way.
    const auto pool = fuzz::MutationPool::fromCorpusDir(goldenDir());
    size_t sequences = 0;
    for (const auto& seed : pool.seeds()) {
        const auto* tir = std::get_if<fuzz::SeqRepro>(seed.repro.get());
        const auto* graph_seq =
            std::get_if<fuzz::GraphSeqRepro>(seed.repro.get());
        if (tir == nullptr && graph_seq == nullptr)
            continue;
        ++sequences;
        const auto& sequence =
            tir != nullptr ? tir->sequence : graph_seq->sequence;
        Rng a(7), b(7);
        EXPECT_EQ(backends::mutatePassSequence(seed.backend, sequence, a),
                  backends::mutatePassSequence(seed.backend, sequence, b));
    }
    EXPECT_GT(sequences, 0u);
}

TEST(Mutator, FiveHundredMutantsAllValidate)
{
    // The validity property of the tentpole: every mutant — including
    // mutants of mutants, where drift compounds — passes
    // graph/validate, so corpus-guided campaigns never execute an
    // ill-typed case.
    std::vector<fuzz::GraphRepro> frontier =
        graphSeeds(fuzz::MutationPool::fromCorpusDir(goldenDir()));
    ASSERT_FALSE(frontier.empty());
    Rng rng(2023);
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
        const auto* graph = std::get_if<fuzz::GraphRepro>(bug.repro.get());
        if (graph == nullptr)
            continue;
        ++graph_repros;
        Rng rng(31 + salt++);
        fuzz::GraphRepro seed_case = *graph;
        for (int k = 0; k < 8; ++k) {
            seed_case = fuzz::mutateGraphCase(seed_case, rng);
            const std::string rendered = renderAs(bug, seed_case);
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
