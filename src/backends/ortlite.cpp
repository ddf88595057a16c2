/**
 * @file
 * OrtLite — the ONNXRuntime analogue: a graph-optimizing runtime with
 * many *pattern-specific* rewrite passes ("over 130 source files on
 * various graph optimizations", §5.1). Its coverage is therefore very
 * sensitive to the structural diversity of input models — the property
 * behind NNSmith's 1.8x coverage win on ONNXRuntime (Fig. 4a).
 *
 * The optimizer is decomposed into named per-rewrite `GraphPass`
 * entries (backends/graph_pass.h): the default pipeline runs every
 * pass in registration order — bit-for-bit the historical monolithic
 * scan — while pass-fuzz mode and runWithPasses() run arbitrary
 * subsets and orders of the same registry.
 */
#include <algorithm>
#include <set>

#include "backends/backend.h"
#include "backends/graph_pass.h"
#include "coverage/coverage.h"
#include "support/logging.h"

namespace nnsmith::backends {

using onnx::OnnxModel;
using onnx::OnnxNode;
using tensor::DType;

namespace {

constexpr const char* kImport = "ortlite/import";
constexpr const char* kPass = "ortlite/pass";

void
covImport(const std::string& key)
{
    coverage::CoverageRegistry::instance().hitDynamic(kImport, key, false);
}

void
covOpt(const std::string& pass, const std::string& key)
{
    coverage::CoverageRegistry::instance().hitDynamic(
        std::string(kPass) + "/" + pass, key, /*pass_only=*/true);
}

std::string
dtypeSig(const OnnxNode& node)
{
    std::string sig;
    for (auto t : node.inDTypes)
        sig += tensor::dtypeName(t) + ",";
    return sig;
}

bool
isUnaryEltwise(const std::string& op)
{
    static const char* kUnary[] = {
        "Relu", "LeakyRelu", "Sigmoid", "Tanh", "Sin", "Cos", "Asin",
        "Acos", "Atan", "Abs", "Neg", "Exp", "Log", "Log2", "Sqrt",
        "Floor", "Ceil", "Round", "Clip", "Softmax", "Not"};
    return std::find_if(std::begin(kUnary), std::end(kUnary),
                        [&](const char* u) { return op == u; }) !=
           std::end(kUnary);
}

bool
isArith(const std::string& op)
{
    return op == "Add" || op == "Sub" || op == "Mul" || op == "Div" ||
           op == "Pow" || op == "Max" || op == "Min";
}

// ---- the pattern-based optimizer, one GraphPass per rewrite family --------

/** Producer/consumer pair statistics every fusion pass consults. */
void
passAnalysisPairs(const OnnxModel& model, std::vector<std::string>&)
{
    for (const auto& n : model.nodes) {
        for (int v : n.inputs) {
            const OnnxNode* producer = producerOf(model, v);
            if (producer == nullptr)
                continue;
            covOpt("analysis.pairs", producer->opName + "+" + n.opName);
            covOpt("analysis.pairs",
                   producer->opName + "+" + n.opName + "/" + dtypeSig(n));
        }
    }
}

/** FuseMatMulScale (ort.fuse.matmul_scale_1x1, crash). */
void
passFuseMatmulScale(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "MatMul")
            continue;
        covOpt("fuse.matmul_scale", dtypeSig(n));
        const auto& rhs = model.value(n.inputs[1]).shape;
        const OnnxNode* p0 = producerOf(model, n.inputs[0]);
        const OnnxNode* p1 = producerOf(model, n.inputs[1]);
        const bool scaled = (p0 != nullptr && p0->opName == "Mul") ||
                            (p1 != nullptr && p1->opName == "Mul");
        if (scaled)
            covOpt("fuse.matmul_scale", "scaled");
        if (scaled && rhs.rank() == 2 && rhs.numel() == 1 &&
            defects.trigger("ort.fuse.matmul_scale_1x1")) {
            throw BackendError("ort.fuse.matmul_scale_1x1",
                               "FuseMatMulScale: MatMul does not accept "
                               "scalar operands after rewrite");
        }
    }
}

/** MatMul+Add -> Gemm (ort.fuse.matmul_add_gemm, crash). */
void
passFuseMatmulAddGemm(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "MatMul")
            continue;
        for (const auto* consumer : consumersOf(model, n.outputs[0])) {
            if (consumer->opName != "Add")
                continue;
            covOpt("fuse.matmul_add_gemm", "matmul_add");
            const int other = consumer->inputs[0] == n.outputs[0]
                                  ? consumer->inputs[1]
                                  : consumer->inputs[0];
            if (model.value(other).shape.rank() <= 1 &&
                defects.trigger("ort.fuse.matmul_add_gemm")) {
                throw BackendError("ort.fuse.matmul_add_gemm",
                                   "Gemm rewrite: broadcast bias rank 1 "
                                   "unsupported");
            }
        }
    }
}

/** Relu->Clip fusion (ort.fuse.relu_clip_double, semantic). */
void
passFuseReluClip(const OnnxModel& model,
                 std::vector<std::string>& fired_semantic)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "Relu")
            continue;
        for (const auto* consumer : consumersOf(model, n.outputs[0])) {
            if (consumer->opName != "Clip")
                continue;
            covOpt("fuse.relu_clip", dtypeSig(n));
            if (!n.inDTypes.empty() && n.inDTypes[0] == DType::kF64 &&
                defects.trigger("ort.fuse.relu_clip_double"))
                fired_semantic.push_back("ort.fuse.relu_clip_double");
        }
    }
}

/** Add simplifications (ort.simplify.add_zero_broadcast, crash). */
void
passSimplifyAddZero(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "Add")
            continue;
        covOpt("simplify.add_zero", dtypeSig(n));
        for (int v : n.inputs) {
            if (!isWeight(model, v))
                continue;
            const auto& w = model.value(v).shape;
            covOpt("simplify.add_zero",
                   "weight_rank" + std::to_string(w.rank()));
            const int other = n.inputs[0] == v ? n.inputs[1] : n.inputs[0];
            if (w.numel() == 1 && model.value(other).shape.rank() >= 2 &&
                w.rank() != model.value(other).shape.rank() &&
                defects.trigger("ort.simplify.add_zero_broadcast")) {
                throw BackendError("ort.simplify.add_zero_broadcast",
                                   "ConstantFolding: broadcast shape lost "
                                   "while folding trivial addend");
            }
        }
    }
}

/** Neg(Neg(x)) elimination (ort.simplify.double_neg, crash). */
void
passSimplifyDoubleNeg(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "Neg")
            continue;
        const OnnxNode* producer = producerOf(model, n.inputs[0]);
        if (producer == nullptr || producer->opName != "Neg")
            continue;
        covOpt("simplify.double_neg", dtypeSig(n));
        if (model.value(n.inputs[0]).shape.rank() == 0 &&
            defects.trigger("ort.simplify.double_neg")) {
            throw BackendError("ort.simplify.double_neg",
                               "NegNeg elimination: 0-d tensor "
                               "dereference");
        }
    }
}

/** Add+Softmax -> BiasSoftmax (ort.fuse.bias_softmax, crash). */
void
passFuseBiasSoftmax(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "Softmax")
            continue;
        covOpt("fuse.bias_softmax",
               "axis" + std::to_string(n.attrs.at("axis")));
        const OnnxNode* producer = producerOf(model, n.inputs[0]);
        if (producer == nullptr || producer->opName != "Add")
            continue;
        covOpt("fuse.bias_softmax", "fused");
        // The fused kernel mishandles a *broadcast* bias on a non-last
        // axis (rank-aligned Adds — all GraphFuzzer's repair produces —
        // take the safe path).
        const bool broadcast_bias =
            model.value(producer->inputs[0]).shape.rank() !=
            model.value(producer->inputs[1]).shape.rank();
        if (broadcast_bias &&
            n.attrs.at("axis") != n.attrs.at("rank") - 1 &&
            defects.trigger("ort.fuse.bias_softmax")) {
            throw BackendError("ort.fuse.bias_softmax",
                               "BiasSoftmax: only last-axis softmax "
                               "supported by the fused kernel");
        }
    }
}

/** Conv+BN folding (ort.fuse.conv_bn, crash). */
void
passFuseConvBn(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "BatchNorm")
            continue;
        const OnnxNode* producer = producerOf(model, n.inputs[0]);
        if (producer == nullptr || producer->opName != "Conv2d")
            continue;
        covOpt("fuse.conv_bn", dtypeSig(n));
        if (producer->attrs.at("stride") > 1 &&
            producer->attrs.at("pad") > 0 &&
            defects.trigger("ort.fuse.conv_bn")) {
            throw BackendError("ort.fuse.conv_bn",
                               "ConvBNFusion: strided padded conv "
                               "mis-folded");
        }
    }
}

/** Transpose pair elimination (ort.simplify.transpose_transpose). */
void
passSimplifyTransposePair(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "Transpose")
            continue;
        covOpt("simplify.transpose_pair",
               "rank" + std::to_string(n.attrs.at("rank")));
        const OnnxNode* producer = producerOf(model, n.inputs[0]);
        if (producer == nullptr || producer->opName != "Transpose")
            continue;
        covOpt("simplify.transpose_pair", "pair");
        // Compose the two permutations; identity is safe.
        const int rank = static_cast<int>(n.attrs.at("rank"));
        bool identity = producer->attrs.at("rank") == rank;
        if (identity) {
            for (int i = 0; i < rank; ++i) {
                const int64_t inner =
                    producer->attrs.at("p" + std::to_string(i));
                if (n.attrs.at("p" + std::to_string(inner)) != i)
                    identity = false;
            }
        }
        if (!identity &&
            defects.trigger("ort.simplify.transpose_transpose")) {
            throw BackendError("ort.simplify.transpose_transpose",
                               "TransposeOptimizer: pair assumed "
                               "identity");
        }
    }
}

/** Full-extent slice removal (ort.simplify.slice_noop, semantic). */
void
passSimplifySliceNoop(const OnnxModel& model,
                      std::vector<std::string>& fired_semantic)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "Slice")
            continue;
        covOpt("simplify.slice_noop",
               "stride" + std::to_string(
                              std::min<int64_t>(n.attrs.at("stride"), 4)));
        const auto& in_shape = model.value(n.inputs[0]).shape;
        const auto axis = static_cast<size_t>(n.attrs.at("axis"));
        if (n.attrs.at("len") == in_shape.dims[axis] &&
            n.attrs.at("stride") > 1 &&
            defects.trigger("ort.simplify.slice_noop"))
            fired_semantic.push_back("ort.simplify.slice_noop");
    }
}

/** Reduce+Squeeze fusion (ort.fuse.reduce_squeeze, crash). */
void
passFuseReduceSqueeze(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "Squeeze")
            continue;
        const OnnxNode* producer = producerOf(model, n.inputs[0]);
        if (producer == nullptr ||
            producer->opName.rfind("Reduce", 0) != 0 ||
            producer->attrs.at("keepdims") != 1)
            continue;
        covOpt("fuse.reduce_squeeze", producer->opName);
        if (producer->attrs.at("axis") == 0 && n.attrs.at("axis") == 0 &&
            defects.trigger("ort.fuse.reduce_squeeze")) {
            throw BackendError("ort.fuse.reduce_squeeze",
                               "ReduceSqueeze fusion: axis-0 pair "
                               "rejected by kernel registry");
        }
    }
}

/** Per-op attribute-bucket branches (unary/elementwise kernels). */
void
passAnalysisEltwise(const OnnxModel& model, std::vector<std::string>&)
{
    for (const auto& n : model.nodes) {
        if (isUnaryEltwise(n.opName))
            covOpt("analysis.eltwise", n.opName + "/" + dtypeSig(n));
        if (isArith(n.opName))
            covOpt("analysis.eltwise", n.opName + "/" + dtypeSig(n));
    }
}

/** BFCArena accounting (ort.misc.memory_arena, crash). */
void
passMiscMemoryArena(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    const size_t live_values = model.values.size();
    std::set<tensor::DType> dtypes_used;
    for (const auto& v : model.values)
        dtypes_used.insert(v.dtype);
    covOpt("misc.memory_arena",
           "values" + std::to_string(live_values / 8));
    covOpt("misc.memory_arena",
           "dtypes" + std::to_string(dtypes_used.size()));
    // Mixed-element-size allocation patterns on larger models overflow
    // the arena's bin accounting.
    if (live_values >= 22 && dtypes_used.size() >= 3 &&
        defects.trigger("ort.misc.memory_arena")) {
        throw BackendError("ort.misc.memory_arena",
                           "BFCArena: allocation pattern overflow");
    }
}

/** Parallel scheduler (ort.misc.parallel_reorder, semantic). */
void
passMiscScheduler(const OnnxModel& model,
                  std::vector<std::string>& fired_semantic)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& v : model.values) {
        if (consumersOf(model, v.id).size() >= 3) {
            covOpt("misc.scheduler", "fanout3");
            if (defects.trigger("ort.misc.parallel_reorder"))
                fired_semantic.push_back("ort.misc.parallel_reorder");
            break;
        }
    }
}

/** OrtLite backend implementation. */
class OrtLite final : public Backend {
  public:
    explicit OrtLite(uint64_t pass_fuzz_seed)
        : pass_fuzz_seed_(pass_fuzz_seed)
    {
    }

    std::string name() const override { return "OrtLite"; }
    System system() const override { return System::kOrtLite; }

  protected:
    std::vector<tensor::Tensor>
    runImpl(const OnnxModel& model, const exec::LeafValues& leaves,
            OptLevel level, const std::vector<std::string>* pass_names,
            std::vector<std::string>& fired_semantic) override
    {
        importChecks(model);
        std::unordered_map<int, int> id_map;
        graph::Graph graph = onnx::importToGraph(model, &id_map);
        if (level == OptLevel::kO3) {
            std::vector<std::string> drawn;
            runGraphPasses(
                model, "OrtLite",
                pass_names != nullptr
                    ? *pass_names
                    : stagePassSequence(
                          "OrtLite", pass_fuzz_seed_,
                          [&] { return hashOnnxModel(model); }, drawn),
                fired_semantic);
        }
        return executeImported(model, graph, id_map, leaves);
    }

  private:
    /** Conversion stage (coverage + structural validation). */
    void
    importChecks(const OnnxModel& model)
    {
        // Pattern-insensitive session/allocator/registry plumbing any
        // model exercises (smaller than TVM's: ORT does no codegen).
        coverage::CoverageRegistry::instance().hitRange("ortlite/runtime",
                                                        1800, 1.0);
        for (const auto& n : model.nodes) {
            covImport("op/" + n.opName);
            covImport("op/" + n.opName + "/" + dtypeSig(n));
            for (int v : n.inputs) {
                const auto& shape = model.value(v).shape;
                covImport("rank/" + n.opName + "/" +
                          std::to_string(shape.rank()));
                // Generic kernel-selection plumbing, reachable by any
                // well-formed model (shape-size buckets).
                for (int64_t d : shape.dims) {
                    int bucket = 0;
                    while ((1 << bucket) < d && bucket < 8)
                        ++bucket;
                    covImport("dimbucket/" + std::to_string(bucket));
                }
            }
        }
    }

    uint64_t pass_fuzz_seed_;
};

} // namespace

const std::vector<GraphPass>&
ortLiteGraphPasses()
{
    // Registration order is the historical monolithic scan order of
    // the rewrite families — the default pipeline replays it exactly.
    static const std::vector<GraphPass> registry = {
        {"analysis.pairs", "analysis", true, passAnalysisPairs},
        {"fuse.matmul_scale", "fuse", true, passFuseMatmulScale},
        {"fuse.matmul_add_gemm", "fuse", true, passFuseMatmulAddGemm},
        {"fuse.relu_clip", "fuse", false, passFuseReluClip},
        {"simplify.add_zero", "simplify", true, passSimplifyAddZero},
        {"simplify.double_neg", "simplify", true, passSimplifyDoubleNeg},
        {"fuse.bias_softmax", "fuse", true, passFuseBiasSoftmax},
        {"fuse.conv_bn", "fuse", true, passFuseConvBn},
        {"simplify.transpose_pair", "simplify", true,
         passSimplifyTransposePair},
        {"simplify.slice_noop", "simplify", false, passSimplifySliceNoop},
        {"fuse.reduce_squeeze", "fuse", true, passFuseReduceSqueeze},
        {"analysis.eltwise", "analysis", true, passAnalysisEltwise},
        {"misc.memory_arena", "misc", true, passMiscMemoryArena},
        {"misc.scheduler", "misc", false, passMiscScheduler},
    };
    return registry;
}

std::unique_ptr<Backend>
makeOrtLite(uint64_t pass_fuzz_seed)
{
    // Paper §5.1: ONNXRuntime's instrumented branch population is ~65k.
    coverage::CoverageRegistry::instance().declareTotal("ortlite", 64854);
    return std::make_unique<OrtLite>(pass_fuzz_seed);
}

} // namespace nnsmith::backends
