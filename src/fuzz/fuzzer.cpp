#include "fuzz/fuzzer.h"

#include <optional>
#include <sstream>

#include "obs/trace.h"
#include "support/logging.h"

namespace nnsmith::fuzz {

using difftest::CaseResult;
using difftest::Verdict;

std::optional<GraphRepro>
rebuildGraph(const graph::Graph& graph, const exec::LeafValues& leaves,
             const std::set<int>& keep_ops, const RebuildSpec& spec)
{
    GraphRepro out;
    std::map<int, int> value_map; // old value id -> new value id

    std::set<int> needed_leaves;
    for (int id : keep_ops) {
        for (int v : graph.node(id).inputs) {
            const auto& producer = graph.node(graph.value(v).producer);
            if (producer.kind != graph::NodeKind::kOp)
                needed_leaves.insert(producer.id);
        }
    }

    for (int id : graph.topoOrder()) {
        const auto& node = graph.node(id);
        if (node.kind != graph::NodeKind::kOp) {
            if (needed_leaves.count(id) == 0)
                continue;
            const auto& old_value = graph.value(node.outputs[0]);
            tensor::TensorType type = old_value.type;
            const tensor::Tensor* binding = nullptr;
            if (const auto edit = spec.leafValues.find(id);
                edit != spec.leafValues.end()) {
                binding = &edit->second;
                type = tensor::TensorType::concrete(binding->dtype(),
                                                    binding->shape());
            } else if (const auto bound = leaves.find(old_value.id);
                       bound != leaves.end()) {
                binding = &bound->second;
            }
            const int new_value =
                out.graph.addLeaf(node.kind, type, old_value.name);
            value_map[old_value.id] = new_value;
            if (binding != nullptr)
                out.leaves.emplace(new_value, *binding);
        } else if (keep_ops.count(id) != 0) {
            std::vector<int> inputs;
            inputs.reserve(node.inputs.size());
            for (int v : node.inputs)
                inputs.push_back(value_map.at(v));

            std::shared_ptr<ops::OpBase> op = node.op;
            const auto replace_it = spec.replaceOps.find(id);
            if (replace_it != spec.replaceOps.end())
                op = replace_it->second;

            std::vector<tensor::TensorType> out_types;
            if (spec.repropagateTypes ||
                replace_it != spec.replaceOps.end()) {
                std::vector<tensor::TensorType> in_types;
                std::vector<tensor::DType> in_dtypes;
                for (int v : inputs) {
                    in_types.push_back(out.graph.value(v).type);
                    in_dtypes.push_back(in_types.back().dtype());
                }
                if (op->inDTypes() != in_dtypes) {
                    // The edit moved an input dtype: re-pick the
                    // operator's combo, or report the edit untypeable.
                    bool matched = false;
                    for (const auto& combo : op->dtypeCombos()) {
                        if (combo.in != in_dtypes)
                            continue;
                        auto clone = op->clone();
                        clone->setDTypes(combo);
                        op = std::shared_ptr<ops::OpBase>(std::move(clone));
                        matched = true;
                        break;
                    }
                    if (!matched)
                        return std::nullopt;
                }
                for (const auto& derived : op->typeTransfer(in_types)) {
                    auto type = derived.foldedConcrete();
                    if (!type.has_value())
                        return std::nullopt;
                    out_types.push_back(std::move(*type));
                }
                if (out_types.size() != node.outputs.size())
                    return std::nullopt;
            } else {
                for (int v : node.outputs)
                    out_types.push_back(graph.value(v).type);
            }

            const int new_id = out.graph.addOp(op, inputs, out_types);
            const auto& rebuilt = out.graph.node(new_id);
            for (size_t i = 0; i < node.outputs.size(); ++i)
                value_map[node.outputs[i]] = rebuilt.outputs[i];
        }
    }
    if (out.graph.numOpNodes() == 0)
        return std::nullopt;
    return out;
}

std::optional<GraphRepro>
rebuildGraph(const graph::Graph& graph, const exec::LeafValues& leaves,
             const RebuildSpec& spec)
{
    const auto ops = graph.opOrder();
    return rebuildGraph(graph, leaves, std::set<int>(ops.begin(), ops.end()),
                        spec);
}

VirtualMs
CostModel::backendCompile(const std::string& backend) const
{
    if (backend == "OrtLite")
        return backendCompileOrt;
    if (backend == "TVMLite")
        return backendCompileTvm;
    if (backend == "TrtLite")
        return backendCompileTrt;
    NNSMITH_PANIC("no compile cost for backend ", backend);
}

std::vector<BugRecord>
bugsFromCase(const CaseResult& result)
{
    std::vector<BugRecord> bugs;
    if (!result.exportOk) {
        BugRecord bug;
        bug.dedupKey = "Exporter|crash|" + result.exportCrashKind;
        bug.backend = "Exporter";
        bug.kind = "export-crash";
        bug.detail = result.exportCrashKind;
        bug.defects = result.triggeredDefects;
        bugs.push_back(std::move(bug));
        return bugs;
    }
    for (const auto& v : result.verdicts) {
        if (v.verdict == Verdict::kCrash) {
            BugRecord bug;
            bug.dedupKey = v.backend + "|crash|" + v.crashKind;
            bug.backend = v.backend;
            bug.kind = "crash";
            bug.detail = v.detail;
            bug.defects = result.triggeredDefects;
            bugs.push_back(std::move(bug));
        } else if (v.verdict == Verdict::kWrongResult) {
            // Dedup semantic issues by the set of triggered semantic
            // defects (the paper dedups by eventual patch; the trace
            // is our ground-truth analogue).
            std::ostringstream key;
            key << v.backend << "|wrong|";
            for (const auto& d : result.triggeredDefects)
                key << d << ",";
            BugRecord bug;
            bug.dedupKey = key.str();
            bug.backend = v.backend;
            bug.kind = "wrong-result";
            bug.detail = v.detail;
            bug.defects = result.triggeredDefects;
            bugs.push_back(std::move(bug));
        }
    }
    return bugs;
}

IterationOutcome
executeGraphCase(const graph::Graph& graph, const exec::LeafValues& leaves,
                 const std::vector<backends::Backend*>& backend_list,
                 const CostModel& cost)
{
    return executeGraphCaseBatch(graph, {leaves}, backend_list, cost,
                                 /*sweep=*/false);
}

IterationOutcome
executeGraphCaseBatch(const graph::Graph& graph,
                      const std::vector<exec::LeafValues>& lanes,
                      const std::vector<backends::Backend*>& backend_list,
                      const CostModel& cost, bool sweep)
{
    IterationOutcome outcome;
    outcome.produced = true;
    std::vector<CaseResult> results;
    if (sweep) {
        results = difftest::runCaseBatch(graph, lanes, backend_list);
    } else {
        results.reserve(lanes.size());
        for (const auto& leaves : lanes)
            results.push_back(difftest::runCase(graph, leaves, backend_list));
    }
    for (size_t l = 0; l < lanes.size(); ++l) {
        auto bugs = bugsFromCase(results[l]);
        if (!bugs.empty()) {
            // One shared repro for all of this lane's records; the
            // reduction subsystem (reduce/reducer.h) delta-debugs it.
            const auto repro =
                std::make_shared<const Repro>(GraphRepro{graph, lanes[l]});
            for (auto& bug : bugs)
                bug.repro = repro;
        }
        for (auto& bug : bugs)
            outcome.bugs.push_back(std::move(bug));
        // Each lane is a full differential case: it pays the backend
        // compile+run virtual cost. What batching amortizes is the
        // per-iteration generation/search cost (added by the caller).
        for (const auto* backend : backend_list)
            outcome.cost += cost.backendCompile(backend->name()) + cost.run;
    }
    return outcome;
}

NNSmithFuzzer::NNSmithFuzzer(Options options, uint64_t seed)
    : options_(std::move(options)), rng_(seed), next_seed_(seed)
{
}

IterationOutcome
NNSmithFuzzer::iterate(const std::vector<backends::Backend*>& backend_list)
{
    gen::GraphGenerator generator(options_.generator, next_seed_++);
    // The "gen" phase covers graph synthesis and value search — all
    // the work of building a test case before any backend runs it.
    std::optional<obs::PhaseSpan> gen_span;
    gen_span.emplace("gen");
    const auto model = generator.generate();
    if (!model) {
        IterationOutcome outcome;
        outcome.cost =
            options_.cost.generationPerOp * options_.generator.targetOpNodes;
        return outcome;
    }
    ++generated_;

    exec::LeafValues leaves;
    if (options_.runValueSearch) {
        const auto search =
            autodiff::search(model->graph, rng_, options_.search);
        leaves = search.success
                     ? search.values
                     : exec::randomLeaves(model->graph, rng_,
                                          options_.search.initLo,
                                          options_.search.initHi);
    } else {
        leaves = exec::randomLeaves(model->graph, rng_);
    }
    // Lane 0 is the sequential case's inputs verbatim; extra lanes are
    // additional random input sets for the same graph. Drawing them
    // here keeps all rng_ consumption inside case construction, so a
    // fixed batch size stays deterministic across worker matrices
    // (per-iteration fuzzers are seeded via deriveIterationSeed).
    std::vector<exec::LeafValues> lanes;
    lanes.reserve(options_.batch > 0 ? options_.batch : 1);
    lanes.push_back(std::move(leaves));
    for (size_t l = 1; l < options_.batch; ++l)
        lanes.push_back(exec::randomLeaves(model->graph, rng_));
    gen_span.reset();

    IterationOutcome outcome = executeGraphCaseBatch(
        model->graph, lanes, backend_list, options_.cost,
        /*sweep=*/options_.batchSweep && lanes.size() > 1);
    outcome.cost += options_.cost.generationPerOp *
                        model->graph.numOpNodes() +
                    (options_.runValueSearch ? options_.cost.valueSearch
                                             : 0);
    outcome.instanceKeys = model->instanceKeys();
    return outcome;
}

} // namespace nnsmith::fuzz
