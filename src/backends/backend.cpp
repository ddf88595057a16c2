#include "backends/backend.h"

#include <algorithm>

#include "backends/graph_pass.h"
#include "support/logging.h"

namespace nnsmith::backends {

using onnx::OnnxModel;
using onnx::OnnxNode;
using onnx::ValueKind;
using tensor::DType;
using tensor::Tensor;

namespace {

/**
 * The run()/runWithPasses() contract around one compile+run body:
 * a BackendError becomes a kCrash result; otherwise the outputs are
 * perturbed once per fired semantic defect id.
 */
template <typename Body>
RunResult
runGuarded(Body body)
{
    RunResult result;
    std::vector<std::string> fired_semantic;
    try {
        result.outputs = body(fired_semantic);
    } catch (const BackendError& error) {
        result.status = RunResult::Status::kCrash;
        result.crashKind = error.kind();
        result.crashMessage = error.what();
        return result;
    }
    for (const auto& defect_id : fired_semantic)
        perturbOutputs(result.outputs, defect_id);
    result.firedSemantic = std::move(fired_semantic);
    return result;
}

} // namespace

RunResult
Backend::run(const OnnxModel& model, const exec::LeafValues& leaves,
             OptLevel level)
{
    return runGuarded([&](std::vector<std::string>& fired_semantic) {
        return runImpl(model, leaves, level, nullptr, fired_semantic);
    });
}

RunResult
Backend::runWithPasses(const OnnxModel& model, const exec::LeafValues& leaves,
                       const std::vector<std::string>& pass_names)
{
    NNSMITH_ASSERT(isGraphPassBackend(name()), "backend ", name(),
                   " has no graph-pass registry");
    return runGuarded([&](std::vector<std::string>& fired_semantic) {
        return runImpl(model, leaves, OptLevel::kO3, &pass_names,
                       fired_semantic);
    });
}

std::unique_ptr<Backend>
makeBackend(const std::string& name, uint64_t pass_fuzz_seed)
{
    if (name == "OrtLite")
        return makeOrtLite(pass_fuzz_seed);
    if (name == "TVMLite")
        return makeTvmLite(pass_fuzz_seed);
    if (name == "TrtLite")
        return makeTrtLite(pass_fuzz_seed);
    NNSMITH_PANIC("unknown backend ", name);
}

const OnnxNode*
producerOf(const OnnxModel& model, int value_id)
{
    for (const auto& n : model.nodes) {
        if (std::find(n.outputs.begin(), n.outputs.end(), value_id) !=
            n.outputs.end())
            return &n;
    }
    return nullptr;
}

std::vector<const OnnxNode*>
consumersOf(const OnnxModel& model, int value_id)
{
    std::vector<const OnnxNode*> out;
    for (const auto& n : model.nodes) {
        if (std::find(n.inputs.begin(), n.inputs.end(), value_id) !=
            n.inputs.end())
            out.push_back(&n);
    }
    return out;
}

bool
isWeight(const OnnxModel& model, int value_id)
{
    return model.value(value_id).kind == ValueKind::kWeight;
}

std::vector<Tensor>
executeImported(const OnnxModel& model, const graph::Graph& graph,
                const std::unordered_map<int, int>& id_map,
                const exec::LeafValues& leaves)
{
    exec::LeafValues mapped;
    for (const auto& v : model.values) {
        if (v.kind == ValueKind::kIntermediate)
            continue;
        auto leaf = leaves.find(v.id);
        NNSMITH_ASSERT(leaf != leaves.end(), "missing leaf for onnx %",
                       v.id);
        auto mapped_id = id_map.find(v.id);
        NNSMITH_ASSERT(mapped_id != id_map.end(), "unmapped onnx leaf %",
                       v.id);
        // A mis-exported dtype (e.g. exp.dtype.bool_concat) reaches the
        // backend as a cast of the original tensor.
        Tensor tensor = leaf->second;
        if (tensor.dtype() != v.dtype)
            tensor = tensor.castTo(v.dtype);
        mapped.emplace(mapped_id->second, std::move(tensor));
    }
    const auto exec_result = exec::execute(graph, mapped);
    std::vector<Tensor> outputs;
    for (int id : model.outputs) {
        auto mapped_id = id_map.find(id);
        NNSMITH_ASSERT(mapped_id != id_map.end(), "unmapped output %", id);
        outputs.push_back(exec_result.values.at(mapped_id->second));
    }
    return outputs;
}

void
perturbOutputs(std::vector<Tensor>& outputs, const std::string& defect_id)
{
    // Stable per-defect perturbation scale, always > any tolerance.
    uint64_t hash = 1469598103934665603ull;
    for (char c : defect_id)
        hash = (hash ^ static_cast<uint64_t>(c)) * 1099511628211ull;
    const double scale = 1.25 + static_cast<double>(hash % 100) / 100.0;
    for (auto& tensor : outputs) {
        for (int64_t i = 0; i < tensor.numel(); ++i) {
            const double v = tensor.scalarAt(i);
            if (tensor.dtype() == DType::kBool)
                tensor.setScalar(i, v == 0.0 ? 1.0 : 0.0);
            else if (tensor::isInt(tensor.dtype()))
                tensor.setScalar(i, v + 1.0);
            else
                tensor.setScalar(i, v * scale + 0.5);
        }
    }
}

} // namespace nnsmith::backends
