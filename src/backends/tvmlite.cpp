/**
 * @file
 * TVMLite — the Apache TVM analogue: an end-to-end compiler with
 * *general* graph-level passes keyed on operator properties (injective
 * / reduction / complex) rather than specific patterns, plus low-level
 * TIRLite optimization of lowered loop nests. Because its graph passes
 * are property-based, its coverage is less sensitive to pattern
 * diversity than OrtLite's — reproducing the paper's observation that
 * NNSmith's edge on TVM (1.08x) is smaller than on ONNXRuntime (1.8x).
 */
#include <algorithm>

#include "backends/backend.h"
#include "backends/graph_pass.h"
#include "coverage/coverage.h"
#include "support/logging.h"
#include "tirlite/tir_lower.h"
#include "tirlite/tir_passes.h"

namespace nnsmith::backends {

using onnx::OnnxModel;
using onnx::OnnxNode;
using tensor::DType;

namespace {

/**
 * Pattern-insensitive shared infrastructure (parser, IR builders,
 * runtime plumbing). The paper: "simply importing TVM's libraries ...
 * can hit 4015 branches but those branches are unlikely to have bugs";
 * TVM's total instrumented population (~103k) dwarfs its pass-specific
 * part, which is why its coverage is comparatively insensitive to
 * model-pattern diversity (Fig. 4b).
 */
constexpr size_t kTvmSharedInfraBranches = 12800;

void
covImport(const std::string& key)
{
    coverage::CoverageRegistry::instance().hitDynamic("tvmlite/import",
                                                      key, false);
}

void
covPass(const std::string& pass, const std::string& key)
{
    coverage::CoverageRegistry::instance().hitDynamic(
        "tvmlite/transform/" + pass, key, /*pass_only=*/true);
}

/** TVM-style operator property classes (fusion is property-driven). */
std::string
opProperty(const std::string& op)
{
    static const char* kInjective[] = {
        "Relu", "LeakyRelu", "Sigmoid", "Tanh", "Sin", "Cos", "Asin",
        "Acos", "Atan", "Abs", "Neg", "Exp", "Log", "Log2", "Sqrt",
        "Floor", "Ceil", "Round", "Clip", "Not", "Cast", "Add", "Sub",
        "Mul", "Div", "Mod", "Pow", "Max", "Min", "Equal", "Greater", "Less",
        "And", "Or", "Xor", "Where", "Reshape", "Flatten", "Squeeze",
        "Unsqueeze", "Transpose", "Slice", "ConstPad", "ReflectPad",
        "ReplicatePad", "BroadcastTo", "Concat"};
    for (const char* name : kInjective) {
        if (op == name)
            return "injective";
    }
    if (op.rfind("Reduce", 0) == 0 || op == "ArgMax" || op == "ArgMin" ||
        op == "Softmax")
        return "reduce";
    return "complex"; // conv/matmul/norm/resize
}

bool
producesI64(const OnnxNode& n)
{
    return !n.outDTypes.empty() && n.outDTypes[0] == DType::kI64;
}

/** Attribute lookup with a default (nodes differ in attribute sets). */
int64_t
attrOr(const OnnxNode& n, const std::string& key, int64_t fallback)
{
    const auto it = n.attrs.find(key);
    return it == n.attrs.end() ? fallback : it->second;
}

/** TVMLite backend implementation. */
class TvmLite final : public Backend {
  public:
    explicit TvmLite(uint64_t pass_fuzz_seed)
        : passFuzzSeed_(pass_fuzz_seed)
    {
    }

    std::string name() const override { return "TVMLite"; }
    System system() const override { return System::kTvmLite; }

  protected:
    std::vector<tensor::Tensor>
    runImpl(const OnnxModel& model, const exec::LeafValues& leaves,
            OptLevel level, const std::vector<std::string>*,
            std::vector<std::string>& fired_semantic) override
    {
        // Stale import-defect state must not leak across runs: a
        // crash later in a previous compile (or an O0 run, which
        // never reaches graphPasses) leaves entries behind, and a
        // backend whose verdicts depend on its own history breaks the
        // sharded campaign's iteration independence.
        fired_semantic_import_.clear();
        importChecks(model); // conversion defects fire at any level
        std::unordered_map<int, int> id_map;
        graph::Graph graph = onnx::importToGraph(model, &id_map);
        if (level == OptLevel::kO3) {
            graphPasses(model, fired_semantic);
            lowerAndOptimize(graph, fired_semantic);
        }
        return executeImported(model, graph, id_map, leaves);
    }

  private:
    // ---- conversion (frontend) ------------------------------------------

    void
    importChecks(const OnnxModel& model)
    {
        hitTvmSharedInfra(1.0);
        auto& defects = DefectRegistry::instance();
        for (const auto& n : model.nodes) {
            // TVM's frontend is much larger than ONNXRuntime's (§5.1:
            // coverage upper limit 116k vs 65k): the relay converter
            // has per-operator, per-dtype, per-rank and per-shape
            // legalization branches, most of which any well-formed
            // model reaches. This is why TVM's coverage is *less*
            // sensitive to pattern diversity (Fig. 4b vs 4a).
            covImport("op/" + n.opName);
            covImport("prop/" + opProperty(n.opName));
            std::string dtype_sig;
            for (auto t : n.inDTypes) {
                covImport("dtype/" + tensor::dtypeName(t));
                dtype_sig += tensor::dtypeName(t) + ",";
            }
            covImport("legalize/" + n.opName + "/" + dtype_sig);
            for (size_t i = 0; i < n.inputs.size(); ++i) {
                const auto& shape = model.value(n.inputs[i]).shape;
                covImport("rank/" + n.opName + "/" +
                          std::to_string(shape.rank()));
                for (int64_t d : shape.dims) {
                    int bucket = 0;
                    while ((1 << bucket) < d && bucket < 8)
                        ++bucket;
                    covImport("dimbucket/" + n.opName + "/" +
                              std::to_string(bucket));
                }
            }
            for (const auto& [attr_name, attr_value] : n.attrs) {
                covImport("attr/" + n.opName + "/" + attr_name + "=" +
                          std::to_string(std::clamp<int64_t>(attr_value,
                                                             -2, 8)));
            }

            // Scalar-output reduce family (§5.4 wrong scalar handling).
            const bool scalar_out =
                model.value(n.outputs[0]).shape.rank() == 0;
            if (scalar_out)
                covImport("scalar_out/" + n.opName);
            struct ScalarEntry {
                const char* op;
                const char* defect;
            };
            static const ScalarEntry kScalarReduce[] = {
                {"ReduceSum", "tvm.import.scalar_reduce_sum"},
                {"ReduceMean", "tvm.import.scalar_reduce_mean"},
                {"ReduceMax", "tvm.import.scalar_reduce_max"},
                {"ReduceMin", "tvm.import.scalar_reduce_min"},
                {"ReduceProd", "tvm.import.scalar_reduce_prod"},
                {"ArgMax", "tvm.import.scalar_argmax"},
            };
            for (const auto& entry : kScalarReduce) {
                if (scalar_out && n.opName == entry.op &&
                    defects.trigger(entry.defect)) {
                    throw BackendError(
                        entry.defect,
                        std::string("relay frontend: cannot squeeze "
                                    "0-d output of ") + entry.op);
                }
            }

            // Where 3-way broadcast shape inference (§5.4).
            if (n.opName == "Where") {
                const int rc = model.value(n.inputs[0]).shape.rank();
                const int rt = model.value(n.inputs[1]).shape.rank();
                const int rf = model.value(n.inputs[2]).shape.rank();
                covImport("where/ranks" + std::to_string(rc) +
                          std::to_string(rt) + std::to_string(rf));
                // Paper §5.4: the *lower-ranked* F operand is ignored
                // during shape inference (Where(C[1,1], T[3,1], F[2])).
                if (rf < std::max(rc, rt) &&
                    defects.trigger("tvm.import.where_broadcast")) {
                    throw BackendError(
                        "tvm.import.where_broadcast",
                        "relay.where: lower-ranked operand ignored in "
                        "shape inference");
                }
                if (isWeight(model, n.inputs[0]) &&
                    defects.trigger("tvm.import.bool_where"))
                    fired_semantic_import_.push_back(
                        "tvm.import.bool_where");
                if (!n.inDTypes.empty() && n.inDTypes[1] == DType::kI64 &&
                    defects.trigger("tvm.i64.where")) {
                    throw BackendError("tvm.i64.where",
                                       "relay.where: i64 branches meet "
                                       "i32 index math");
                }
            }

            // MatMul vector broadcasting (§5.4).
            if (n.opName == "MatMul") {
                const auto& a = model.value(n.inputs[0]).shape;
                const auto& b = model.value(n.inputs[1]).shape;
                covImport("matmul/m" + std::to_string(a.dims[0] == 1));
                if ((a.dims[0] == 1 || b.dims[1] == 1) &&
                    defects.trigger("tvm.import.matmul_vector")) {
                    throw BackendError(
                        "tvm.import.matmul_vector",
                        "relay.matmul: single-rank broadcast operand "
                        "rejected");
                }
            }

            // Negative (cropping) pads on activations.
            if (n.opName == "ConstPad" &&
                (n.attrs.at("before") < 0 || n.attrs.at("after") < 0)) {
                covImport("pad/negative");
                if (!isWeight(model, n.inputs[0]) &&
                    defects.trigger("tvm.import.negative_pad")) {
                    throw BackendError(
                        "tvm.import.negative_pad",
                        "relay.pad: negative padding width");
                }
            }

            // Cast-to-bool feeding logic ops imports as identity.
            if (n.opName == "Cast" && !n.outDTypes.empty() &&
                n.outDTypes[0] == DType::kBool) {
                covImport("cast/bool");
                for (const auto* consumer :
                     consumersOf(model, n.outputs[0])) {
                    if (consumer->opName == "And" ||
                        consumer->opName == "Or" ||
                        consumer->opName == "Xor" ||
                        consumer->opName == "Not") {
                        if (defects.trigger("tvm.import.cast_bool"))
                            fired_semantic_import_.push_back(
                                "tvm.import.cast_bool");
                    }
                }
            }
        }
    }

    // ---- graph-level transformation --------------------------------------

    void
    graphPasses(const OnnxModel& model,
                std::vector<std::string>& fired_semantic)
    {
        for (const auto& id : fired_semantic_import_)
            fired_semantic.push_back(id);
        fired_semantic_import_.clear();

        auto& defects = DefectRegistry::instance();

        // Pass 1: AlterOpLayout — rewrite Conv2d to NCHW4c, then make
        // every consumer adapt (hosts the 7-bug layout family).
        for (const auto& n : model.nodes) {
            if (n.opName != "Conv2d")
                continue;
            const auto& kernel = model.value(n.inputs[1]).shape;
            const bool to_nchw4c = kernel.dims[0] % 4 == 0;
            covPass("layout", to_nchw4c ? "rewrite" : "keep");
            if (!to_nchw4c)
                continue;
            for (const auto* consumer : consumersOf(model, n.outputs[0])) {
                covPass("layout", "adapt/" + opProperty(consumer->opName));
                covPass("layout", "adapt/op/" + consumer->opName);
                struct LayoutEntry {
                    bool match;
                    const char* defect;
                };
                const std::string& c = consumer->opName;
                const bool is_binary_bcast =
                    (c == "Add" || c == "Sub" || c == "Mul") &&
                    model.value(consumer->inputs[0]).shape.rank() !=
                        model.value(consumer->inputs[1]).shape.rank();
                const LayoutEntry entries[] = {
                    {c == "Slice" && attrOr(*consumer, "axis", -1) == 1 &&
                         attrOr(*consumer, "stride", 1) > 1,
                     "tvm.layout.nchw4c_slice"},
                    {is_binary_bcast, "tvm.layout.nchw4c_broadcast"},
                    {c.rfind("Reduce", 0) == 0 &&
                         attrOr(*consumer, "axis", -1) == 1,
                     "tvm.layout.nchw4c_reduce"},
                    {c == "Concat" && attrOr(*consumer, "axis", -1) == 1,
                     "tvm.layout.nchw4c_concat"},
                    {(c == "ConstPad" || c == "ReflectPad" ||
                      c == "ReplicatePad") &&
                         attrOr(*consumer, "axis", -1) == 1,
                     "tvm.layout.nchw4c_pad"},
                    {c == "Transpose", "tvm.layout.nchw4c_transpose"},
                    {c == "Resize2d", "tvm.layout.nchw4c_resize"},
                };
                for (const auto& entry : entries) {
                    if (entry.match && defects.trigger(entry.defect)) {
                        throw BackendError(
                            entry.defect,
                            std::string("AlterOpLayout: cannot adapt ") +
                                c + " to NCHW4c");
                    }
                }
            }
        }

        // Pass 2: type/index checking — the i32/i64 family.
        for (const auto& n : model.nodes) {
            covPass("typecheck", producesI64(n) ? "i64" : "i32");
            covPass("typecheck",
                    n.opName + "/" +
                        (n.outDTypes.empty()
                             ? "?"
                             : tensor::dtypeName(n.outDTypes[0])));
            struct I64Entry {
                bool match;
                const char* defect;
            };
            const I64Entry entries[] = {
                {n.opName == "Reshape" && producesI64(n),
                 "tvm.i64.reshape"},
                {n.opName == "BroadcastTo" && producesI64(n),
                 "tvm.i64.broadcastto"},
                {n.opName == "Slice" && producesI64(n),
                 "tvm.i64.slice_bounds"},
                {n.opName == "Concat" && producesI64(n) &&
                     attrOr(n, "axis", -1) == 0,
                 "tvm.i64.concat_axis"},
                {n.opName == "Squeeze" && producesI64(n),
                 "tvm.i64.squeeze"},
                {n.opName == "Flatten" && producesI64(n),
                 "tvm.i64.flatten"},
            };
            for (const auto& entry : entries) {
                if (entry.match && defects.trigger(entry.defect)) {
                    throw BackendError(
                        entry.defect,
                        "relay type checker: i64 shape meets i32 "
                        "index expression in " + n.opName);
                }
            }
            if (n.opName == "ArgMax" || n.opName == "ArgMin") {
                for (const auto* consumer :
                     consumersOf(model, n.outputs[0])) {
                    if ((consumer->opName == "Add" ||
                         consumer->opName == "Sub" ||
                         consumer->opName == "Mul" ||
                         consumer->opName == "Max" ||
                         consumer->opName == "Min") &&
                        defects.trigger("tvm.i64.argmax_consumer")) {
                        throw BackendError(
                            "tvm.i64.argmax_consumer",
                            "relay: i64 index tensor in arithmetic");
                    }
                }
            }
            if (n.opName == "Cast" && producesI64(n)) {
                for (const auto* consumer :
                     consumersOf(model, n.outputs[0])) {
                    if ((consumer->opName == "Add" ||
                         consumer->opName == "Mul") &&
                        defects.trigger("tvm.i64.cast_arith")) {
                        throw BackendError(
                            "tvm.i64.cast_arith",
                            "relay: cast-to-i64 feeding arithmetic");
                    }
                }
            }
        }

        // Pass 3: FuseOps — property-driven grouping.
        int injective_run = 0;
        bool run_has_shape_change = false;
        const auto is_shape_changing = [](const std::string& op) {
            return op == "Reshape" || op == "Transpose" ||
                   op == "Slice" || op == "Concat" || op == "Squeeze" ||
                   op == "Unsqueeze" || op == "Flatten" ||
                   op == "BroadcastTo" || op == "ConstPad" ||
                   op == "ReflectPad" || op == "ReplicatePad";
        };
        for (const auto& n : model.nodes) {
            const std::string prop = opProperty(n.opName);
            covPass("fuse", prop);
            covPass("fuse", "op/" + n.opName);
            covPass("fuse", "fanout" +
                                std::to_string(std::min<size_t>(
                                    consumersOf(model, n.outputs[0])
                                        .size(),
                                    3)));
            if (prop == "injective") {
                ++injective_run;
                run_has_shape_change |= is_shape_changing(n.opName);
            } else {
                injective_run = 0;
                run_has_shape_change = false;
            }
            covPass("fuse", "run" + std::to_string(
                                std::min(injective_run, 5)));
            // The group-budget bug needs a *shape-changing* injective
            // member — pure activation towers (all LEMON can build)
            // fuse fine.
            if (injective_run >= 4 && run_has_shape_change &&
                defects.trigger("tvm.fuse.injective_chain")) {
                throw BackendError("tvm.fuse.injective_chain",
                                   "FuseOps: injective group exceeds "
                                   "kernel parameter budget");
            }
            if ((n.opName == "Add" || n.opName == "Sub" ||
                 n.opName == "Mul") &&
                model.value(n.inputs[0]).shape.rank() !=
                    model.value(n.inputs[1]).shape.rank() &&
                consumersOf(model, n.outputs[0]).size() >= 2 &&
                defects.trigger("tvm.fuse.broadcast_output"))
                fired_semantic.push_back("tvm.fuse.broadcast_output");
            if (n.opName == "Conv2d") {
                int epilogue = 0;
                const OnnxNode* cursor = &n;
                while (true) {
                    const auto consumers =
                        consumersOf(model, cursor->outputs[0]);
                    if (consumers.size() != 1 ||
                        opProperty(consumers[0]->opName) != "injective")
                        break;
                    ++epilogue;
                    cursor = consumers[0];
                }
                covPass("fuse", "conv_epilogue" +
                                    std::to_string(std::min(epilogue, 4)));
                // Needs a non-trivial conv schedule: baselines use
                // k=1/s=1/p=0 instances, which take the fast path.
                if (epilogue >= 3 &&
                    (n.attrs.at("stride") > 1 || n.attrs.at("pad") > 0) &&
                    defects.trigger("tvm.fuse.conv_elemwise")) {
                    throw BackendError("tvm.fuse.conv_elemwise",
                                       "FuseOps: conv epilogue chain "
                                       "overflows schedule");
                }
            }
            if (opProperty(n.opName) == "injective" &&
                consumersOf(model, n.outputs[0]).size() == 2 &&
                defects.trigger("tvm.fuse.multi_consumer"))
                fired_semantic.push_back("tvm.fuse.multi_consumer");
        }

        // Pass 4: FoldConstant — weight-only subgraphs.
        for (const auto& n : model.nodes) {
            bool all_weight = !n.inputs.empty();
            for (int v : n.inputs)
                all_weight &= isWeight(model, v);
            if (!all_weight)
                continue;
            covPass("fold", n.opName);
            if ((n.opName == "ConstPad") &&
                (n.attrs.at("before") < 0 || n.attrs.at("after") < 0) &&
                defects.trigger("tvm.fold.weight_pad")) {
                throw BackendError("tvm.fold.weight_pad",
                                   "FoldConstant: negative pad of "
                                   "constant weight");
            }
            if (n.opName == "Where" &&
                defects.trigger("tvm.fold.constant_where")) {
                throw BackendError("tvm.fold.constant_where",
                                   "FoldConstant: three-constant where");
            }
            if (n.opName == "Reshape" &&
                n.attrs.at("dst_rank") > n.attrs.at("src_rank") &&
                defects.trigger("tvm.fold.reshape_const"))
                fired_semantic.push_back("tvm.fold.reshape_const");
        }

        // Pass 5: arithmetic simplification (the div/mul reorder bug
        // fires on Reshape->Slice index math, §5.4).
        for (const auto& n : model.nodes) {
            if (n.opName != "Slice")
                continue;
            const OnnxNode* producer = producerOf(model, n.inputs[0]);
            if (producer != nullptr && producer->opName == "Reshape") {
                covPass("simplify", "reshape_slice");
                if (n.attrs.at("stride") > 1 &&
                    defects.trigger("tvm.simplify.divmul_reorder"))
                    fired_semantic.push_back(
                        "tvm.simplify.divmul_reorder");
            }
        }
    }

    // ---- low-level lowering + TIR pipeline -------------------------------

    void
    lowerAndOptimize(const graph::Graph& graph,
                     std::vector<std::string>& fired_semantic)
    {
        for (const auto& node : graph.nodes()) {
            if (node.dead || node.kind != graph::NodeKind::kOp)
                continue;
            const auto program = tirlite::lowerNode(graph, node);
            if (!program) {
                covPass("lower", "extern/" + opProperty(node.op->name()));
                continue;
            }
            covPass("lower", node.op->name());
            // Schedule-selection branches: one per (op, size bucket).
            const int64_t numel = graph.value(node.outputs[0])
                                      .type.concreteShape()
                                      .numel();
            int bucket = 0;
            while ((1 << bucket) < numel && bucket < 16)
                ++bucket;
            covPass("schedule",
                    node.op->name() + "/n" + std::to_string(bucket));
            // Pass-fuzz mode draws the sequence from the lowered
            // program's structural hash, so the draw is a pure
            // function of the test case (shard-invariant — backend
            // instances stay stateless across runs).
            std::vector<std::string> drawn;
            tirlite::runTirPasses(
                *program,
                stagePassSequence(
                    "TVMLite", passFuzzSeed_,
                    [&] { return tirlite::hashTirProgram(*program); },
                    drawn),
                fired_semantic);
        }
    }

    std::vector<std::string> fired_semantic_import_;
    uint64_t passFuzzSeed_ = 0;
};

} // namespace

std::unique_ptr<Backend>
makeTvmLite(uint64_t pass_fuzz_seed)
{
    // Paper §5.1: TVM's instrumented branch population is ~103k.
    coverage::CoverageRegistry::instance().declareTotal("tvmlite", 102994);
    return std::make_unique<TvmLite>(pass_fuzz_seed);
}

void
hitTvmSharedInfra(double fraction)
{
    coverage::CoverageRegistry::instance().hitRange(
        "tvmlite/runtime", kTvmSharedInfraBranches, fraction);
}

} // namespace nnsmith::backends
