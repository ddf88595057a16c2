/**
 * @file
 * TrtLite — the TensorRT analogue: a closed-source-style builder. No
 * optimizer coverage instrumentation is exported (the paper excludes
 * TensorRT from coverage because it is closed source, §5.1); it
 * participates in bug finding only. Its layer-fusion builder is
 * decomposed into named *tactics* on the shared graph-pass registry
 * (backends/graph_pass.h), so pass-sequence fuzzing and replay work
 * against it even without internal coverage — only the harness-side
 * `trtlite/pass/seq` bins (which describe the fuzzer's input space)
 * are recorded.
 */
#include <algorithm>

#include "backends/backend.h"
#include "backends/graph_pass.h"
#include "support/logging.h"

namespace nnsmith::backends {

using onnx::OnnxModel;
using onnx::OnnxNode;
using onnx::ValueKind;
using tensor::DType;

namespace {

bool
isUnaryEltwise(const std::string& op)
{
    static const char* kUnary[] = {
        "Relu", "LeakyRelu", "Sigmoid", "Tanh", "Sin", "Cos", "Asin",
        "Acos", "Atan", "Abs", "Neg", "Exp", "Log", "Log2", "Sqrt",
        "Floor", "Ceil", "Round", "Clip"};
    return std::find_if(std::begin(kUnary), std::end(kUnary),
                        [&](const char* u) { return op == u; }) !=
           std::end(kUnary);
}

// ---- builder tactics, one GraphPass each ----------------------------------

/** Pointwise fusion (>= 4 chained unary ops; trt.fuse.pointwise). */
void
tacticPointwiseFusion(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    int chain = 0;
    for (const auto& n : model.nodes) {
        chain = isUnaryEltwise(n.opName) ? chain + 1 : 0;
        if (chain >= 4 && defects.trigger("trt.fuse.pointwise")) {
            throw BackendError("trt.fuse.pointwise",
                               "PointWiseFusion: kernel generation "
                               "failed for deep chains");
        }
    }
}

/** Padded strided max-pool kernel selection (trt.kernel.pool_pad). */
void
tacticPoolPad(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName == "MaxPool2d" && n.attrs.at("pad") > 0 &&
            n.attrs.at("stride") > 1 &&
            defects.trigger("trt.kernel.pool_pad")) {
            throw BackendError("trt.kernel.pool_pad",
                               "CaskPooling: no kernel for padded "
                               "strided max-pool");
        }
    }
}

/** Fast-math pow approximation (trt.fp.fastmath_pow, semantic). */
void
tacticFastmathPow(const OnnxModel& model,
                  std::vector<std::string>& fired_semantic)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName == "Pow" && !n.inDTypes.empty() &&
            n.inDTypes[0] == DType::kF32 &&
            defects.trigger("trt.fp.fastmath_pow"))
            fired_semantic.push_back("trt.fp.fastmath_pow");
    }
}

/** MatMul+Relu epilogue fusion (trt.fuse.matmul_relu). */
void
tacticMatmulRelu(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName != "MatMul")
            continue;
        for (const auto* consumer : consumersOf(model, n.outputs[0])) {
            if (consumer->opName == "Relu" &&
                defects.trigger("trt.fuse.matmul_relu")) {
                throw BackendError("trt.fuse.matmul_relu",
                                   "MatMul+Relu tactic: cublasLt "
                                   "epilogue failure");
            }
        }
    }
}

/** Wide-convolution tactic selection (trt.misc.tactic). */
void
tacticWideConv(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    for (const auto& n : model.nodes) {
        if (n.opName == "Conv2d" &&
            model.value(n.inputs[1]).shape.dims[0] >= 8 &&
            defects.trigger("trt.misc.tactic")) {
            throw BackendError("trt.misc.tactic",
                               "Builder: no tactic for wide "
                               "convolution");
        }
    }
}

/** Workspace sizing for large graphs (trt.misc.workspace). */
void
tacticWorkspace(const OnnxModel& model, std::vector<std::string>&)
{
    auto& defects = DefectRegistry::instance();
    if (model.nodes.size() >= 18 &&
        defects.trigger("trt.misc.workspace")) {
        throw BackendError("trt.misc.workspace",
                           "Builder: insufficient workspace for "
                           "large graph");
    }
}

/** f64-heavy precision demotion (trt.misc.precision, semantic). */
void
tacticPrecision(const OnnxModel& model,
                std::vector<std::string>& fired_semantic)
{
    auto& defects = DefectRegistry::instance();
    bool has_f64_heavy = false;
    for (const auto& n : model.nodes) {
        if ((n.opName == "Conv2d" || n.opName == "MatMul") &&
            !n.inDTypes.empty() && n.inDTypes[0] == DType::kF64)
            has_f64_heavy = true;
    }
    if (has_f64_heavy && defects.trigger("trt.misc.precision"))
        fired_semantic.push_back("trt.misc.precision");
}

/** Conv+BN builder-flag interaction (trt.misc.builder_flag, semantic). */
void
tacticBuilderFlag(const OnnxModel& model,
                  std::vector<std::string>& fired_semantic)
{
    auto& defects = DefectRegistry::instance();
    bool has_conv = false;
    bool has_bn = false;
    for (const auto& n : model.nodes) {
        has_conv |= n.opName == "Conv2d";
        has_bn |= n.opName == "BatchNorm";
    }
    if (has_conv && has_bn && defects.trigger("trt.misc.builder_flag"))
        fired_semantic.push_back("trt.misc.builder_flag");
}

class TrtLite final : public Backend {
  public:
    explicit TrtLite(uint64_t pass_fuzz_seed)
        : pass_fuzz_seed_(pass_fuzz_seed)
    {
    }

    std::string name() const override { return "TrtLite"; }
    System system() const override { return System::kTrtLite; }

  protected:
    std::vector<tensor::Tensor>
    runImpl(const OnnxModel& model, const exec::LeafValues& leaves,
            OptLevel level, const std::vector<std::string>* pass_names,
            std::vector<std::string>& fired_semantic) override
    {
        importStage(model, fired_semantic);
        if (level == OptLevel::kO3) {
            std::vector<std::string> drawn;
            runGraphPasses(
                model, "TrtLite",
                pass_names != nullptr
                    ? *pass_names
                    : stagePassSequence(
                          "TrtLite", pass_fuzz_seed_,
                          [&] { return hashOnnxModel(model); }, drawn),
                fired_semantic);
        }
        std::unordered_map<int, int> id_map;
        graph::Graph graph = onnx::importToGraph(model, &id_map);
        return executeImported(model, graph, id_map, leaves);
    }

  private:
    /** Network definition (conversion) — runs at any opt level. */
    void
    importStage(const OnnxModel& model,
                std::vector<std::string>& fired_semantic)
    {
        auto& defects = DefectRegistry::instance();
        for (const auto& v : model.values) {
            if (v.kind == ValueKind::kInput && v.shape.rank() == 0 &&
                defects.trigger("trt.import.rank0")) {
                throw BackendError("trt.import.rank0",
                                   "INetworkDefinition: 0-d input "
                                   "tensors are not supported");
            }
        }
        for (const auto& n : model.nodes) {
            // int32 Clip: an invalid opset-11 model the exporter let
            // through; TrtLite compiles it anyway and misreads the
            // bounds (semantic, §5.4 "Data type mismatch").
            if (n.opName == "Clip" && !n.inDTypes.empty() &&
                n.inDTypes[0] == DType::kI32 &&
                defects.trigger("trt.import.clip_i32"))
                fired_semantic.push_back("trt.import.clip_i32");
        }
    }

    uint64_t pass_fuzz_seed_;
};

} // namespace

const std::vector<GraphPass>&
trtLiteGraphPasses()
{
    // Registration order is the historical builderPasses scan order.
    static const std::vector<GraphPass> registry = {
        {"tactic.pointwise_fusion", "tactic", true, tacticPointwiseFusion},
        {"tactic.pool_pad", "tactic", true, tacticPoolPad},
        {"tactic.fastmath_pow", "tactic", false, tacticFastmathPow},
        {"tactic.matmul_relu", "tactic", true, tacticMatmulRelu},
        {"tactic.wide_conv", "tactic", true, tacticWideConv},
        {"tactic.workspace", "tactic", true, tacticWorkspace},
        {"tactic.precision", "tactic", false, tacticPrecision},
        {"tactic.builder_flag", "tactic", false, tacticBuilderFlag},
    };
    return registry;
}

std::unique_ptr<Backend>
makeTrtLite(uint64_t pass_fuzz_seed)
{
    return std::make_unique<TrtLite>(pass_fuzz_seed);
}

} // namespace nnsmith::backends
