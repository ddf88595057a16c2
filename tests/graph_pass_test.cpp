/**
 * Tests for the backend-agnostic graph-pass registry and the
 * pass-sequence vocabulary (backends/graph_pass.h): registry lookup,
 * golden draws and mutations for all three backends, sequence-bin
 * recording, the seeded pass stage, default-pipeline
 * equivalence (runWithPasses(default) ≡ the historical kO3 compile,
 * bit-for-bit), and the cross-backend semantics-preservation property
 * — every pass registered as semantics-preserving must keep outputs
 * unchanged on random models under the difftest comparator.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "backends/backend.h"
#include "backends/defects.h"
#include "backends/graph_pass.h"
#include "coverage/coverage.h"
#include "difftest/compare.h"
#include "exec/interpreter.h"
#include "gen/generator.h"
#include "onnx/exporter.h"
#include "tirlite/tir_passes.h"

namespace nnsmith::backends {
namespace {

TEST(GraphPassRegistry, LookupAndMembership)
{
    EXPECT_TRUE(isGraphPassBackend("OrtLite"));
    EXPECT_TRUE(isGraphPassBackend("TrtLite"));
    EXPECT_FALSE(isGraphPassBackend("TVMLite")); // TIR registry instead
    EXPECT_FALSE(isGraphPassBackend("Exporter"));

    EXPECT_EQ(graphPasses("OrtLite").size(), 14u);
    EXPECT_EQ(graphPasses("TrtLite").size(), 8u);

    EXPECT_NE(findGraphPass("OrtLite", "fuse.matmul_add_gemm"), nullptr);
    EXPECT_NE(findGraphPass("TrtLite", "tactic.matmul_relu"), nullptr);
    // Pass-name spaces are disjoint across backends (what makes the
    // bench_pass_venn center region purely structural).
    EXPECT_EQ(findGraphPass("OrtLite", "tactic.matmul_relu"), nullptr);
    EXPECT_EQ(findGraphPass("TrtLite", "fuse.matmul_add_gemm"), nullptr);
    EXPECT_EQ(findGraphPass("OrtLite", "no.such.pass"), nullptr);

    for (const char* backend : {"OrtLite", "TrtLite"}) {
        const auto& passes = graphPasses(backend);
        const auto& pipeline = defaultPipeline(backend);
        ASSERT_EQ(pipeline.size(), passes.size());
        for (size_t i = 0; i < passes.size(); ++i) {
            EXPECT_EQ(pipeline[i], passes[i].name);
            EXPECT_EQ(findGraphPass(backend, passes[i].name), &passes[i]);
            EXPECT_FALSE(std::string(passes[i].category).empty());
        }
    }
}

TEST(GraphPassRegistry, SequenceCoverageBins)
{
    const auto bins = sequenceCoverageBins({"a", "b", "c"});
    EXPECT_NE(std::find(bins.begin(), bins.end(), "len/3"), bins.end());
    EXPECT_NE(std::find(bins.begin(), bins.end(), "first/a"), bins.end());
    EXPECT_NE(std::find(bins.begin(), bins.end(), "last/c"), bins.end());
    EXPECT_NE(std::find(bins.begin(), bins.end(), "pair/a>b"), bins.end());
    EXPECT_NE(std::find(bins.begin(), bins.end(), "pair/b>c"), bins.end());
}

using Sequence = std::vector<std::string>;

/** The coverage sites a call of @p record hits, as (site key,
 *  pass-only) pairs. */
template <typename Record>
std::set<std::pair<std::string, bool>>
sitesHitBy(Record record)
{
    coverage::CoverageCollector collector;
    record();
    std::set<std::pair<std::string, bool>> sites;
    for (const auto& site :
         coverage::CoverageRegistry::instance().describeSites(
             collector.take()))
        sites.insert({site.key, site.passOnly});
    return sites;
}

/** Golden draws and mutations per backend, from Rng(2023) for the draw
 *  and four chained mutations, and from Rng(11) for the mutations of
 *  an empty and a one-pass sequence. The literals were printed by the
 *  per-registry-kind helpers this vocabulary replaced, so a changed
 *  RNG consumption order or registry order fails here. */
struct GoldenSequences {
    const char* backend;
    Sequence draw;
    std::vector<Sequence> mutations; ///< each mutates the previous one
    Sequence fromEmpty;
    std::vector<Sequence> fromOne;   ///< each mutates {draw.front()}
};

const std::vector<GoldenSequences>&
goldenSequences()
{
    static const std::vector<GoldenSequences> golden = {
        {"TVMLite",
         {"dead-store-elim", "loop-fusion", "fold", "vectorize-annotate",
          "const-hoist", "cse", "unroll", "strength-reduce"},
         {{"dead-store-elim", "loop-fusion", "fold", "vectorize-annotate",
           "cse", "unroll", "strength-reduce"},
          {"dead-store-elim", "loop-fusion", "vectorize-annotate", "fold",
           "cse", "unroll", "strength-reduce"},
          {"dead-store-elim", "loop-fusion", "simplify-index",
           "vectorize-annotate", "fold", "cse", "unroll",
           "strength-reduce"},
          {"dead-store-elim", "unroll", "simplify-index",
           "vectorize-annotate", "fold", "cse", "loop-fusion",
           "strength-reduce"}},
         {"const-hoist"},
         {{"dead-store-elim", "dead-store-elim"},
          {"dead-store-elim", "fold"},
          {"dead-store-elim", "simplify-index"}}},
        {"OrtLite",
         {"fuse.bias_softmax", "analysis.pairs", "fuse.conv_bn",
          "simplify.transpose_pair", "fuse.reduce_squeeze",
          "fuse.relu_clip", "simplify.add_zero", "simplify.double_neg",
          "misc.scheduler", "misc.memory_arena", "fuse.matmul_add_gemm"},
         {{"fuse.bias_softmax", "analysis.pairs", "misc.memory_arena",
           "simplify.transpose_pair", "fuse.reduce_squeeze",
           "fuse.relu_clip", "simplify.add_zero", "simplify.double_neg",
           "misc.scheduler", "fuse.conv_bn", "fuse.matmul_add_gemm"},
          {"analysis.pairs", "fuse.bias_softmax", "misc.memory_arena",
           "simplify.transpose_pair", "fuse.reduce_squeeze",
           "fuse.relu_clip", "simplify.add_zero", "simplify.double_neg",
           "misc.scheduler", "fuse.conv_bn", "fuse.matmul_add_gemm"},
          {"analysis.pairs", "fuse.bias_softmax", "misc.memory_arena",
           "simplify.transpose_pair", "fuse.relu_clip",
           "simplify.add_zero", "simplify.double_neg", "misc.scheduler",
           "fuse.conv_bn", "fuse.matmul_add_gemm"},
          {"analysis.pairs", "fuse.bias_softmax", "misc.memory_arena",
           "simplify.transpose_pair", "simplify.add_zero",
           "simplify.double_neg", "misc.scheduler", "fuse.conv_bn",
           "fuse.matmul_add_gemm"}},
         {"fuse.conv_bn"},
         {{"simplify.slice_noop", "fuse.bias_softmax"},
          {"fuse.bias_softmax", "fuse.relu_clip"},
          {"fuse.bias_softmax", "fuse.matmul_scale"}}},
        {"TrtLite",
         {"tactic.builder_flag", "tactic.pointwise_fusion",
          "tactic.workspace", "tactic.matmul_relu", "tactic.precision",
          "tactic.wide_conv", "tactic.fastmath_pow"},
         {{"tactic.matmul_relu", "tactic.builder_flag",
           "tactic.pointwise_fusion", "tactic.workspace",
           "tactic.matmul_relu", "tactic.precision", "tactic.wide_conv",
           "tactic.fastmath_pow"},
          {"tactic.matmul_relu", "tactic.pointwise_fusion",
           "tactic.workspace", "tactic.matmul_relu", "tactic.precision",
           "tactic.wide_conv", "tactic.fastmath_pow"},
          {"tactic.workspace", "tactic.pointwise_fusion",
           "tactic.matmul_relu", "tactic.matmul_relu", "tactic.precision",
           "tactic.wide_conv", "tactic.fastmath_pow"},
          {"tactic.workspace", "tactic.pointwise_fusion",
           "tactic.matmul_relu", "tactic.precision", "tactic.wide_conv",
           "tactic.fastmath_pow"}},
         {"tactic.builder_flag"},
         {{"tactic.workspace", "tactic.builder_flag"},
          {"tactic.builder_flag", "tactic.builder_flag"},
          {"tactic.builder_flag", "tactic.pool_pad"}}},
    };
    return golden;
}

TEST(PassSequenceVocabulary, DrawAndMutateMatchGoldenSequences)
{
    for (const auto& golden : goldenSequences()) {
        SCOPED_TRACE(golden.backend);
        Rng rng(2023);
        Sequence sequence = drawPassSequence(golden.backend, rng);
        EXPECT_EQ(sequence, golden.draw);
        for (const auto& expected : golden.mutations) {
            sequence = mutatePassSequence(golden.backend, sequence, rng);
            EXPECT_EQ(sequence, expected);
        }
        Rng small(11);
        EXPECT_EQ(mutatePassSequence(golden.backend, {}, small),
                  golden.fromEmpty);
        for (const auto& expected : golden.fromOne) {
            EXPECT_EQ(mutatePassSequence(golden.backend,
                                         {golden.draw.front()}, small),
                      expected);
        }
    }
}

TEST(PassSequenceVocabulary, TvmLiteNamesAndPipeline)
{
    // The graph registries' counterpart is LookupAndMembership.
    ASSERT_EQ(passNames("TVMLite").size(), tirlite::tirPasses().size());
    for (size_t i = 0; i < tirlite::tirPasses().size(); ++i)
        EXPECT_EQ(passNames("TVMLite")[i], tirlite::tirPasses()[i].name);
    EXPECT_EQ(defaultPipeline("TVMLite"),
              (Sequence{"simplify-index", "fold", "unroll",
                        "vectorize-annotate", "dead-store-elim", "cse"}));
}

TEST(PassSequenceVocabulary, RecordHitsExactlyTheSequenceBins)
{
    const std::pair<const char*, const char*> components[] = {
        {"TVMLite", "tvmlite/pass/seq"},
        {"OrtLite", "ortlite/pass/seq"},
        {"TrtLite", "trtlite/pass/seq"}};
    for (const auto& [backend, component] : components) {
        Rng rng(5);
        const Sequence sequence = drawPassSequence(backend, rng);
        std::set<std::pair<std::string, bool>> expected;
        for (const auto& bin : sequenceCoverageBins(sequence))
            expected.insert({std::string(component) + "|dyn|" + bin, true});
        ASSERT_EQ(expected.size(), sequence.size() + 2) << backend;
        EXPECT_EQ(sitesHitBy([&] {
                      recordSequenceCoverage(backend, sequence);
                  }),
                  expected)
            << backend;
    }
}

TEST(PassSequenceVocabulary, StageIsTheDefaultPipelineAtSeedZero)
{
    for (const char* backend : {"TVMLite", "OrtLite", "TrtLite"}) {
        bool hashed = false;
        const auto case_hash = [&hashed] {
            hashed = true;
            return uint64_t{0x5eed};
        };
        Sequence drawn;
        const Sequence* staged = nullptr;
        const auto sites = sitesHitBy([&] {
            staged = &stagePassSequence(backend, 0, case_hash, drawn);
        });
        // The default pipeline itself: no hash, no draw, no copy.
        EXPECT_EQ(staged, &defaultPipeline(backend)) << backend;
        EXPECT_FALSE(hashed) << backend;
        EXPECT_TRUE(drawn.empty()) << backend;
        EXPECT_TRUE(sites.empty()) << backend;
    }
}

TEST(PassSequenceVocabulary, StageDrawsFromSeedXorCaseHash)
{
    for (const char* backend : {"TVMLite", "OrtLite", "TrtLite"}) {
        const uint64_t seed = 2023, hash = 0x9e3779b97f4a7c15ull;
        Sequence drawn;
        const Sequence* staged = nullptr;
        const auto sites = sitesHitBy([&] {
            staged = &stagePassSequence(
                backend, seed, [&] { return hash; }, drawn);
        });
        EXPECT_EQ(staged, &drawn) << backend;
        Rng rng(seed ^ hash);
        EXPECT_EQ(drawn, drawPassSequence(backend, rng)) << backend;
        EXPECT_EQ(sites, sitesHitBy([&] {
                      recordSequenceCoverage(backend, drawn);
                  }))
            << backend;
        EXPECT_FALSE(sites.empty()) << backend;
    }
}

/** One generated test case, exported once and shared by every pass. */
struct Case {
    graph::Graph graph;
    exec::LeafValues leaves;
    onnx::OnnxModel model;
};

std::vector<Case>
makeCases(size_t want, uint64_t seed)
{
    std::vector<Case> cases;
    Rng rng(seed);
    gen::GeneratorConfig config;
    config.targetOpNodes = 8;
    // Export-crash defects are not the quarry here; scope their
    // triggers away and skip the rare graphs that trip them.
    DefectRegistry::TraceScope trace_scope;
    size_t attempts = 0;
    while (cases.size() < want && attempts < want * 4) {
        ++attempts;
        gen::GraphGenerator generator(config, rng.next());
        auto model = generator.generate();
        if (!model.has_value())
            continue;
        Case test_case;
        test_case.leaves = exec::randomLeaves(model->graph, rng);
        try {
            test_case.model = onnx::exportGraph(model->graph);
        } catch (const BackendError&) {
            continue;
        }
        test_case.graph = std::move(model->graph);
        cases.push_back(std::move(test_case));
    }
    return cases;
}

const std::vector<Case>&
sharedCases()
{
    static const std::vector<Case> cases = makeCases(200, 20230808);
    return cases;
}

/** The refactor's core contract: the decomposed registry run through
 *  runWithPasses(default pipeline) is bit-for-bit the historical kO3
 *  compile — same crash kinds, same firings, same output bits. */
TEST(GraphPassProperty, DefaultPipelineEqualsO3)
{
    const auto& cases = sharedCases();
    ASSERT_GE(cases.size(), 100u);
    const difftest::CompareOptions exact{0.0, 0.0};
    for (const char* name : {"OrtLite", "TrtLite"}) {
        const auto backend = makeBackend(name);
        const auto& pipeline = defaultPipeline(name);
        DefectRegistry::TraceScope trace_scope;
        for (const auto& test_case : cases) {
            const auto via_o3 = backend->run(test_case.model,
                                             test_case.leaves,
                                             OptLevel::kO3);
            const auto via_pipeline = backend->runWithPasses(
                test_case.model, test_case.leaves, pipeline);
            ASSERT_EQ(via_o3.status, via_pipeline.status);
            EXPECT_EQ(via_o3.crashKind, via_pipeline.crashKind);
            EXPECT_EQ(via_o3.firedSemantic, via_pipeline.firedSemantic);
            if (via_o3.status == RunResult::Status::kOk) {
                EXPECT_TRUE(difftest::allClose(
                    via_o3.outputs, via_pipeline.outputs, exact));
            }
        }
    }
}

/**
 * The property the `semanticsPreserving` flag asserts: running any
 * preserving pass alone leaves outputs within difftest tolerance of
 * the pass-off (kO0) run and fires no new semantic defect. Crash
 * results are acceptable — crash-symptom defects are orthogonal to
 * output semantics (they host the pass-fuzz crash campaign instead).
 */
TEST(GraphPassProperty, SemanticsPreservingPassesKeepOutputs)
{
    const auto& cases = sharedCases();
    ASSERT_GE(cases.size(), 100u);
    size_t compared = 0;
    for (const char* name : {"OrtLite", "TrtLite"}) {
        const auto backend = makeBackend(name);
        DefectRegistry::TraceScope trace_scope;
        for (const auto& test_case : cases) {
            const auto reference = backend->run(
                test_case.model, test_case.leaves, OptLevel::kO0);
            if (reference.status == RunResult::Status::kCrash)
                continue; // import-stage crash masks the pass stage
            for (const auto& pass : graphPasses(name)) {
                if (!pass.semanticsPreserving)
                    continue;
                const auto result = backend->runWithPasses(
                    test_case.model, test_case.leaves, {pass.name});
                if (result.status == RunResult::Status::kCrash)
                    continue;
                const auto novel = subtractFired(
                    result.firedSemantic, reference.firedSemantic);
                EXPECT_TRUE(novel.empty())
                    << name << "/" << pass.name << " fired " << novel[0];
                EXPECT_TRUE(difftest::allClose(result.outputs,
                                               reference.outputs,
                                               difftest::CompareOptions()))
                    << name << "/" << pass.name << " changed outputs";
                ++compared;
            }
        }
    }
    // The property must actually have exercised the registries.
    EXPECT_GT(compared, 1000u);
}

/** Non-preserving passes host exactly the semantic defects; when one
 *  fires, the firing is attributable (subtraction is nonempty) and
 *  the defect id belongs to the pass's backend-level registry. */
TEST(GraphPassProperty, NonPreservingPassesFireOnlySemanticDefects)
{
    const auto& cases = sharedCases();
    size_t fired_total = 0;
    for (const char* name : {"OrtLite", "TrtLite"}) {
        const auto backend = makeBackend(name);
        DefectRegistry::TraceScope trace_scope;
        for (const auto& test_case : cases) {
            const auto reference = backend->run(
                test_case.model, test_case.leaves, OptLevel::kO0);
            if (reference.status == RunResult::Status::kCrash)
                continue;
            for (const auto& pass : graphPasses(name)) {
                if (pass.semanticsPreserving)
                    continue;
                const auto result = backend->runWithPasses(
                    test_case.model, test_case.leaves, {pass.name});
                if (result.status == RunResult::Status::kCrash)
                    continue;
                for (const auto& id : subtractFired(
                         result.firedSemantic, reference.firedSemantic)) {
                    ++fired_total;
                    const auto* defect =
                        DefectRegistry::instance().find(id);
                    ASSERT_NE(defect, nullptr) << id;
                    EXPECT_EQ(defect->symptom, Symptom::kSemantic) << id;
                }
            }
        }
    }
    // Across 200 random models at least one semantic host must fire
    // (ort.fp.relu_clip and friends trigger on common shapes).
    EXPECT_GT(fired_total, 0u);
}

} // namespace
} // namespace nnsmith::backends
