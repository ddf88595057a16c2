/** Tests for the TIRLite loop IR: interpreter, lowering, passes. */
#include <gtest/gtest.h>

#include "backends/defects.h"
#include "backends/graph_pass.h"
#include "graph/graph.h"
#include "ops/binary.h"
#include "ops/elementwise.h"
#include "ops/nn_ops.h"
#include "tirlite/tir.h"
#include "tirlite/tir_interp.h"
#include "tirlite/tir_lower.h"
#include "tirlite/tir_passes.h"

namespace nnsmith::tirlite {
namespace {

using backends::BackendError;
using backends::DefectRegistry;
using tensor::DType;
using tensor::Shape;
using tensor::TensorType;

/** TVMLite's non-fuzzed TIR stage: the default pipeline. */
TirProgram
runDefaultPipeline(const TirProgram& program,
                   std::vector<std::string>& fired)
{
    return runTirPasses(program, backends::defaultPipeline("TVMLite"),
                        fired);
}

/** b1[i] = b0[i] + 1 over 4 elements. */
TirProgram
addOneProgram()
{
    TirProgram program;
    program.bufferSizes = {4, 4};
    program.numInputs = 1;
    const auto i = TirExpr::loopVar(0);
    program.body = TirStmt::forLoop(
        0, 4,
        TirStmt::store(1, i,
                       TirExpr::binary(TirExprKind::kAdd,
                                       TirExpr::load(0, i),
                                       TirExpr::floatImm(1.0))));
    return program;
}

TEST(TirInterp, ExecutesLoopNest)
{
    const auto program = addOneProgram();
    Buffers buffers = {{1, 2, 3, 4}, {0, 0, 0, 0}};
    run(program, buffers);
    EXPECT_EQ(buffers[1], (std::vector<double>{2, 3, 4, 5}));
}

TEST(TirInterp, OutOfRangeIndicesWrap)
{
    TirProgram program;
    program.bufferSizes = {2, 2};
    program.numInputs = 1;
    program.body =
        TirStmt::store(1, TirExpr::intImm(5), TirExpr::load(0,
                       TirExpr::intImm(-1)));
    Buffers buffers = {{7, 9}, {0, 0}};
    run(program, buffers); // must not crash; 5 % 2 == 1, -1 wraps to 1
    EXPECT_EQ(buffers[1][1], 9.0);
}

TEST(TirStats, AnalyzeCountsStructure)
{
    const auto program = addOneProgram();
    const auto stats = analyze(program);
    EXPECT_EQ(stats.loops, 1);
    EXPECT_EQ(stats.stores, 1);
    EXPECT_EQ(stats.loads, 1);
    EXPECT_FALSE(stats.hasIntrinsics);
}

TEST(TirGen, RandomProgramsRunSafely)
{
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        const auto program = randomProgram(rng);
        Buffers buffers = makeBuffers(program, rng);
        EXPECT_NO_THROW(run(program, buffers));
    }
}

TEST(TirGen, MutationPreservesBufferLayout)
{
    Rng rng(13);
    auto program = randomProgram(rng);
    for (int i = 0; i < 20; ++i) {
        const auto mutated = mutate(program, rng);
        EXPECT_EQ(mutated.bufferSizes, program.bufferSizes);
        Buffers buffers = makeBuffers(mutated, rng);
        EXPECT_NO_THROW(run(mutated, buffers));
        program = mutated;
    }
}

TEST(TirLower, UnaryLowersToSingleLoopAndAgrees)
{
    graph::Graph g;
    const auto type = TensorType::concrete(DType::kF64, Shape{{5}});
    const int x = g.addLeaf(graph::NodeKind::kInput, type, "x");
    auto op = std::make_shared<ops::UnaryOp>(ops::UnaryKind::kSqrt,
                                             ops::AttrMap{});
    op->setDTypes({{DType::kF64}, {DType::kF64}});
    const int node = g.addOp(op, {x}, {type});

    const auto program = lowerNode(g, g.node(node));
    ASSERT_TRUE(program.has_value());
    EXPECT_EQ(analyze(*program).loops, 1);

    // Semantics agreement with the library kernel.
    Buffers buffers = {{1, 4, 9, 16, 25}, {0, 0, 0, 0, 0}};
    run(*program, buffers);
    EXPECT_EQ(buffers[1], (std::vector<double>{1, 2, 3, 4, 5}));
}

TEST(TirLower, MatMulLowersToTripleNest)
{
    graph::Graph g;
    const auto ta = TensorType::concrete(DType::kF32, Shape{{2, 3}});
    const auto tb = TensorType::concrete(DType::kF32, Shape{{3, 2}});
    const auto tc = TensorType::concrete(DType::kF32, Shape{{2, 2}});
    const int a = g.addLeaf(graph::NodeKind::kInput, ta, "a");
    const int b = g.addLeaf(graph::NodeKind::kInput, tb, "b");
    auto op = std::make_shared<ops::MatMulOp>(ops::AttrMap{});
    op->setDTypes({{DType::kF32, DType::kF32}, {DType::kF32}});
    const int node = g.addOp(op, {a, b}, {tc});
    const auto program = lowerNode(g, g.node(node));
    ASSERT_TRUE(program.has_value());
    EXPECT_EQ(analyze(*program).loops, 3);
    EXPECT_EQ(analyze(*program).maxDepth, 3);
}

TEST(TirLower, IntegerOpsStayOnKernels)
{
    graph::Graph g;
    const auto type = TensorType::concrete(DType::kI32, Shape{{4}});
    const int x = g.addLeaf(graph::NodeKind::kInput, type, "x");
    auto op = std::make_shared<ops::UnaryOp>(ops::UnaryKind::kNeg,
                                             ops::AttrMap{});
    op->setDTypes({{DType::kI32}, {DType::kI32}});
    const int node = g.addOp(op, {x}, {type});
    EXPECT_FALSE(lowerNode(g, g.node(node)).has_value());
}

TEST(TirPasses, PipelinePreservesSemanticsOnCleanPrograms)
{
    DefectRegistry::TraceScope trace_scope;
    const auto program = addOneProgram();
    std::vector<std::string> fired;
    const auto optimized = runDefaultPipeline(program, fired);
    EXPECT_TRUE(fired.empty());
    Buffers a = {{1, 2, 3, 4}, {0, 0, 0, 0}};
    Buffers b = a;
    run(program, a);
    run(optimized, b);
    EXPECT_EQ(a[1], b[1]);
}

TEST(TirPasses, NestedModTriggersSimplifyDefect)
{
    TirProgram program;
    program.bufferSizes = {8, 8};
    program.numInputs = 1;
    const auto i = TirExpr::loopVar(0);
    const auto nested = TirExpr::binary(
        TirExprKind::kMod,
        TirExpr::binary(TirExprKind::kMod, i, TirExpr::intImm(4)),
        TirExpr::intImm(2));
    program.body = TirStmt::forLoop(
        0, 8, TirStmt::store(1, nested, TirExpr::load(0, i)));
    std::vector<std::string> fired;
    DefectRegistry::TraceScope trace_scope;
    EXPECT_THROW(runDefaultPipeline(program, fired), BackendError);
    DefectRegistry::instance().setEnabled("tvm.tir.simplify_mod", false);
    EXPECT_NO_THROW(runDefaultPipeline(program, fired));
    DefectRegistry::instance().setEnabled("tvm.tir.simplify_mod", true);
}

TEST(TirPasses, DeadStoreDefectIsSemanticNotCrash)
{
    TirProgram program;
    program.bufferSizes = {2, 2};
    program.numInputs = 1;
    program.body = TirStmt::seq({
        TirStmt::store(1, TirExpr::intImm(0), TirExpr::floatImm(1.0)),
        TirStmt::store(1, TirExpr::intImm(0), TirExpr::floatImm(2.0)),
    });
    std::vector<std::string> fired;
    DefectRegistry::TraceScope trace_scope;
    runDefaultPipeline(program, fired);
    EXPECT_EQ(fired, std::vector<std::string>{"tvm.tir.dead_store"});
}

TEST(TirPasses, DeadStoreSemanticFiringIsDeduplicated)
{
    // Two independent overwrite pairs in one program: the defect
    // trigger matches twice, but the fired list must report the
    // defect once (regression: it used to be appended per trigger and
    // double-counted downstream).
    TirProgram program;
    program.bufferSizes = {2, 2, 2};
    program.numInputs = 1;
    program.body = TirStmt::seq({
        TirStmt::store(1, TirExpr::intImm(0), TirExpr::floatImm(1.0)),
        TirStmt::store(1, TirExpr::intImm(0), TirExpr::floatImm(2.0)),
        TirStmt::store(2, TirExpr::intImm(0), TirExpr::floatImm(3.0)),
        TirStmt::store(2, TirExpr::intImm(0), TirExpr::floatImm(4.0)),
    });
    std::vector<std::string> fired;
    DefectRegistry::TraceScope trace_scope;
    runDefaultPipeline(program, fired);
    EXPECT_EQ(fired, std::vector<std::string>{"tvm.tir.dead_store"});
}

TEST(TirPasses, RegistryExposesNamedPasses)
{
    EXPECT_GE(tirPasses().size(), 9u);
    for (const char* name :
         {"fold", "simplify-index", "unroll", "vectorize-annotate",
          "dead-store-elim", "cse", "loop-fusion", "const-hoist",
          "strength-reduce"})
        EXPECT_NE(findTirPass(name), nullptr) << name;
    EXPECT_EQ(findTirPass("no-such-pass"), nullptr);
    for (const auto& name : backends::defaultPipeline("TVMLite"))
        EXPECT_NE(findTirPass(name), nullptr) << name;
}

TEST(TirPasses, LoopFusionMergesIndependentSiblings)
{
    // for i: b1[i] = b0[i];  for i: b2[i] = b0[i]  — disjoint stores,
    // neither loads the other's stores: fusable into one loop.
    TirProgram program;
    program.bufferSizes = {4, 4, 4};
    program.numInputs = 1;
    const auto i = TirExpr::loopVar(0);
    program.body = TirStmt::seq({
        TirStmt::forLoop(0, 4,
                         TirStmt::store(1, i, TirExpr::load(0, i))),
        TirStmt::forLoop(0, 4,
                         TirStmt::store(2, i, TirExpr::load(0, i))),
    });
    std::vector<std::string> fired;
    const auto fused = runTirPasses(program, {"loop-fusion"}, fired);
    EXPECT_EQ(analyze(fused).loops, 1);
    Rng rng(3);
    tirlite::Buffers initial = makeBuffers(program, rng);
    tirlite::Buffers a = initial, b = initial;
    run(program, a);
    run(fused, b);
    EXPECT_EQ(a, b);
}

TEST(TirPasses, LoopFusionBlockedByCrossLoopDependence)
{
    // The second loop loads b1, which the first loop stores — fusing
    // would let iteration i of the consumer observe only a prefix of
    // the producer's stores.
    TirProgram program;
    program.bufferSizes = {4, 4, 4};
    program.numInputs = 1;
    const auto i = TirExpr::loopVar(0);
    program.body = TirStmt::seq({
        TirStmt::forLoop(0, 4,
                         TirStmt::store(1, i, TirExpr::load(0, i))),
        TirStmt::forLoop(0, 4,
                         TirStmt::store(2, i, TirExpr::load(1, i))),
    });
    std::vector<std::string> fired;
    const auto out = runTirPasses(program, {"loop-fusion"}, fired);
    EXPECT_EQ(analyze(out).loops, 2);
}

TEST(TirPasses, StrengthReduceAndConstHoistPreserveValues)
{
    // b1[i] = 2 * b0[i] - 0: const-hoist swaps the immediate to the
    // right, strength-reduce rewrites *2 into an add and drops -0.
    TirProgram program;
    program.bufferSizes = {4, 4};
    program.numInputs = 1;
    const auto i = TirExpr::loopVar(0);
    const auto value = TirExpr::binary(
        TirExprKind::kSub,
        TirExpr::binary(TirExprKind::kMul, TirExpr::floatImm(2.0),
                        TirExpr::load(0, i)),
        TirExpr::floatImm(0.0));
    program.body =
        TirStmt::forLoop(0, 4, TirStmt::store(1, i, value));
    std::vector<std::string> fired;
    const auto optimized = runTirPasses(
        program, {"const-hoist", "strength-reduce"}, fired);
    // The multiply and the subtract are both gone.
    TirStats stats = analyze(optimized);
    EXPECT_EQ(stats.loads, 2); // load duplicated by x*2 -> x+x
    Buffers a = {{1, 2, 3, 4}, {0, 0, 0, 0}};
    Buffers b = a;
    run(program, a);
    run(optimized, b);
    EXPECT_EQ(a[1], b[1]);
    EXPECT_EQ(b[1], (std::vector<double>{2, 4, 6, 8}));
}

TEST(TirProgramText, RendersReadably)
{
    const auto text = addOneProgram().toString();
    EXPECT_NE(text.find("for i0 in 0..4"), std::string::npos);
    EXPECT_NE(text.find("b1["), std::string::npos);
}

} // namespace
} // namespace nnsmith::tirlite
