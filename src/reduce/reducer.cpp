#include "reduce/reducer.h"

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "difftest/oracle.h"
#include "fuzz/pass_fuzzer.h"
#include "graph/validate.h"
#include "obs/trace.h"

namespace nnsmith::reduce {

using backends::DefectRegistry;
using backends::Symptom;
using backends::System;
using fuzz::BugRecord;

std::string
crashKindOfKey(const std::string& dedup_key)
{
    const auto first = dedup_key.find('|');
    if (first == std::string::npos)
        return "";
    const auto second = dedup_key.find('|', first + 1);
    if (second == std::string::npos)
        return "";
    return dedup_key.substr(second + 1);
}

namespace {

/**
 * The semantic defects in @p defects attributable to @p backend: its
 * own system's plus the exporter's (whose corrupted metadata every
 * backend faithfully mis-executes). Crash-symptom defects are excluded
 * — a crash identifies itself through its crash kind instead.
 */
std::set<std::string>
relevantSemanticDefects(const std::vector<std::string>& defects,
                        const std::string& backend)
{
    std::set<std::string> out;
    const auto& registry = DefectRegistry::instance();
    for (const auto& id : defects) {
        const auto* defect = registry.find(id);
        if (defect == nullptr || defect->symptom != Symptom::kSemantic)
            continue;
        const bool mine =
            defect->system == System::kExporter ||
            (backend == "OrtLite" && defect->system == System::kOrtLite) ||
            (backend == "TVMLite" && defect->system == System::kTvmLite) ||
            (backend == "TrtLite" && defect->system == System::kTrtLite);
        if (mine)
            out.insert(id);
    }
    return out;
}

// ---- GraphReducer ---------------------------------------------------------

/** Close a kept op-node set over producers so every kept op's inputs
 *  are produced by kept ops or leaves. */
std::set<int>
closeOverProducers(const graph::Graph& graph, std::set<int> keep)
{
    std::vector<int> work(keep.begin(), keep.end());
    while (!work.empty()) {
        const int id = work.back();
        work.pop_back();
        for (int v : graph.node(id).inputs) {
            const int producer = graph.value(v).producer;
            const auto& node = graph.node(producer);
            if (node.kind == graph::NodeKind::kOp && !node.dead &&
                keep.insert(producer).second)
                work.push_back(producer);
        }
    }
    return keep;
}

struct GraphCase {
    graph::Graph graph;
    exec::LeafValues leaves;
};

/**
 * Rebuild the subgraph keeping exactly @p keep_ops (producer-closed)
 * plus the leaves they consume, remapping leaf bindings. Ops are
 * shared with the original graph (immutable once concrete).
 */
GraphCase
extractSubgraph(const graph::Graph& graph, const exec::LeafValues& leaves,
                const std::set<int>& keep_ops)
{
    GraphCase out;
    std::map<int, int> value_map; // original value id -> rebuilt id
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
            const int old_value = node.outputs[0];
            const int new_value = out.graph.addLeaf(
                node.kind, graph.value(old_value).type,
                graph.value(old_value).name);
            value_map[old_value] = new_value;
            const auto bound = leaves.find(old_value);
            if (bound != leaves.end())
                out.leaves.emplace(new_value, bound->second);
        } else if (keep_ops.count(id) != 0) {
            std::vector<int> inputs;
            inputs.reserve(node.inputs.size());
            for (int v : node.inputs)
                inputs.push_back(value_map.at(v));
            std::vector<tensor::TensorType> output_types;
            output_types.reserve(node.outputs.size());
            for (int v : node.outputs)
                output_types.push_back(graph.value(v).type);
            const int new_id =
                out.graph.addOp(node.op, inputs, output_types);
            const auto& rebuilt = out.graph.node(new_id);
            for (size_t i = 0; i < node.outputs.size(); ++i)
                value_map[node.outputs[i]] = rebuilt.outputs[i];
        }
    }
    return out;
}

/** Live op-node ids in deterministic (topological) order. */
std::vector<int>
opNodesInOrder(const graph::Graph& graph)
{
    std::vector<int> ops;
    for (int id : graph.topoOrder()) {
        if (graph.node(id).kind == graph::NodeKind::kOp)
            ops.push_back(id);
    }
    return ops;
}

using Records = std::vector<BugRecord>;

/**
 * Memoized candidate evaluations, shared between the bug records of
 * one flagged case (they all carry the same GraphRepro but pin
 * different fingerprints, so their ddmins probe overlapping kept-sets;
 * each oracle run is a full export + compile + execute). Keyed by the
 * producer-closed kept op-node set; nullptr records a candidate whose
 * rebuilt subgraph failed validation.
 */
using CaseCache = std::map<std::vector<int>, std::shared_ptr<const Records>>;

bool
minimizeGraphBug(BugRecord& bug,
                 const std::vector<backends::Backend*>& backends,
                 const ReduceOptions& options, const Records& full_records,
                 CaseCache& cache)
{
    const auto& repro = *bug.graphRepro;
    const std::string target = fingerprintKey(bug);
    // The full case must reproduce its own fingerprint (deterministic
    // oracle; a mismatch means the record is not reducible as-is).
    if (findFingerprint(full_records, target) == nullptr)
        return false;

    const std::vector<int> ops = opNodesInOrder(repro.graph);
    auto evaluate = [&](const std::set<int>& keep) -> const Records* {
        std::vector<int> key(keep.begin(), keep.end());
        auto it = cache.find(key);
        if (it == cache.end()) {
            GraphCase candidate =
                extractSubgraph(repro.graph, repro.leaves, keep);
            std::shared_ptr<const Records> records;
            if (graph::validate(candidate.graph).ok()) {
                records = std::make_shared<Records>(
                    fuzz::bugsFromCase(difftest::runCase(
                        candidate.graph, candidate.leaves, backends)));
            }
            it = cache.emplace(std::move(key), std::move(records)).first;
        }
        return it->second.get();
    };
    auto still_fails = [&](const std::vector<size_t>& kept) {
        std::set<int> keep;
        for (size_t index : kept)
            keep.insert(ops[index]);
        keep = closeOverProducers(repro.graph, keep);
        const auto* records = evaluate(keep);
        return records != nullptr &&
               findFingerprint(*records, target) != nullptr;
    };

    DdminStats stats;
    const auto minimal =
        ddmin(ops.size(), still_fails, &stats, options.maxOracleRuns);
    std::set<int> keep;
    for (size_t index : minimal)
        keep.insert(ops[index]);
    keep = closeOverProducers(repro.graph, keep);

    auto minimized = std::make_shared<fuzz::GraphRepro>();
    GraphCase reduced = extractSubgraph(repro.graph, repro.leaves, keep);
    minimized->graph = std::move(reduced.graph);
    minimized->leaves = std::move(reduced.leaves);
    // The minimized repro's own trigger trace and diagnostic detail
    // (what the report shows); bug.defects keeps the discovery-time
    // trace.
    bug.minimizedDefects = bug.defects;
    if (const auto* records = evaluate(keep)) {
        if (const auto* matched = findFingerprint(*records, target)) {
            bug.minimizedDefects = matched->defects;
            bug.detail = matched->detail;
        }
    }
    bug.originalSize = ops.size();
    bug.minimizedSize = keep.size();
    bug.graphRepro = std::move(minimized);
    bug.dedupKey = target;
    bug.minimized = true;
    return true;
}

// ---- PassSequenceReducer --------------------------------------------------

/**
 * ddmin @p sequence to the minimal subsequence on which @p query (the
 * repro kind's oracle) still flags @p bug's fingerprint, and record
 * the outcome on @p bug (sizes, the minimized run's own trigger trace,
 * the canonical key). Queries are memoized by subsequence. Returns
 * nullopt — leaving @p bug untouched — when the full sequence does not
 * flag the fingerprint.
 */
std::optional<std::vector<std::string>>
minimizeSequence(
    BugRecord& bug, const std::vector<std::string>& sequence,
    const std::function<Records(const std::vector<std::string>&)>& query,
    const ReduceOptions& options)
{
    const std::string target = fingerprintKey(bug);
    std::map<std::vector<std::string>, Records> cache;
    auto subsequence = [&](const std::vector<size_t>& kept) {
        std::vector<std::string> out;
        out.reserve(kept.size());
        for (size_t index : kept)
            out.push_back(sequence[index]);
        return out;
    };
    auto matched = [&](const std::vector<size_t>& kept) {
        auto key = subsequence(kept);
        auto it = cache.find(key);
        if (it == cache.end()) {
            Records records = query(key);
            it = cache.emplace(std::move(key), std::move(records)).first;
        }
        return findFingerprint(it->second, target);
    };
    auto still_fails = [&](const std::vector<size_t>& kept) {
        return matched(kept) != nullptr;
    };

    std::vector<size_t> all(sequence.size());
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    if (!still_fails(all))
        return std::nullopt;

    DdminStats stats;
    const auto minimal =
        ddmin(sequence.size(), still_fails, &stats, options.maxOracleRuns);
    const BugRecord* final_record = matched(minimal);
    bug.minimizedDefects =
        final_record != nullptr ? final_record->defects : bug.defects;
    bug.originalSize = sequence.size();
    bug.minimizedSize = minimal.size();
    bug.dedupKey = target;
    bug.minimized = true;
    return subsequence(minimal);
}

bool
minimizeSeqBug(BugRecord& bug, const ReduceOptions& options)
{
    auto repro = std::make_shared<fuzz::SeqRepro>(*bug.seqRepro);
    const fuzz::TirSequenceOracle oracle(repro->program, repro->initial);
    auto minimal = minimizeSequence(
        bug, repro->sequence,
        [&](const std::vector<std::string>& sequence) {
            return oracle.query(sequence);
        },
        options);
    if (!minimal)
        return false;
    repro->sequence = std::move(*minimal);
    bug.seqRepro = std::move(repro);
    return true;
}

/** The graph-level analogue of minimizeSeqBug: the model, its export
 *  and its kO0 reference run are fixed once per repro; only the
 *  sequence shrinks. */
bool
minimizeGraphSeqBug(BugRecord& bug, const ReduceOptions& options)
{
    const auto& original = *bug.graphSeqRepro;
    // Canonicalize the model up front: rebuild it with all op nodes
    // kept, which renumbers value ids densely in topological order —
    // the canonical form the corpus round-trip contract requires
    // (graph reduction gets this for free from its kept-set rebuilds).
    // The oracle runs against the canonical model below, so the
    // repro's still-fires check covers the renumbering too.
    const std::vector<int> ops = opNodesInOrder(original.graph);
    auto repro = std::make_shared<fuzz::GraphSeqRepro>();
    {
        GraphCase canonical = extractSubgraph(
            original.graph, original.leaves,
            std::set<int>(ops.begin(), ops.end()));
        repro->graph = std::move(canonical.graph);
        repro->leaves = std::move(canonical.leaves);
        repro->sequence = original.sequence;
    }
    const fuzz::GraphSequenceOracle oracle(bug.backend, repro->graph,
                                           repro->leaves);
    auto minimal = minimizeSequence(
        bug, repro->sequence,
        [&](const std::vector<std::string>& sequence) {
            return oracle.query(sequence);
        },
        options);
    if (!minimal)
        return false;
    repro->sequence = std::move(*minimal);
    bug.graphSeqRepro = std::move(repro);
    return true;
}

} // namespace

std::string
fingerprintKey(const BugRecord& bug)
{
    // Crashes (and export crashes) are already keyed trace-free by
    // backend|tag|crash-kind; sequence records (TIR and graph-level)
    // by backend|wrong|defect; a minimized record by its fingerprint.
    // Only raw graph-level wrong-results carry the trigger trace in
    // their key — canonicalize it to the sorted relevant-defect set.
    if (bug.kind != "wrong-result" || bug.minimized ||
        bug.seqRepro != nullptr || bug.graphSeqRepro != nullptr)
        return bug.dedupKey;
    const auto relevant = relevantSemanticDefects(bug.defects, bug.backend);
    if (relevant.empty())
        return bug.dedupKey;
    std::string key = bug.backend + "|wrong|";
    bool first = true;
    for (const auto& id : relevant) {
        if (!first)
            key += ",";
        key += id;
        first = false;
    }
    return key;
}

const BugRecord*
findFingerprint(const std::vector<BugRecord>& records,
                const std::string& fingerprint)
{
    for (const auto& record : records) {
        if (fingerprintKey(record) == fingerprint)
            return &record;
    }
    return nullptr;
}

ReproRun
rerunRepro(const BugRecord& bug,
           const std::vector<backends::Backend*>& backends)
{
    ReproRun run;
    if (bug.graphRepro != nullptr) {
        const auto& repro = *bug.graphRepro;
        run.records = fuzz::bugsFromCase(
            difftest::runCase(repro.graph, repro.leaves, backends));
    } else if (bug.graphSeqRepro != nullptr) {
        const auto& repro = *bug.graphSeqRepro;
        const fuzz::GraphSequenceOracle oracle(bug.backend, repro.graph,
                                               repro.leaves);
        run.masked = oracle.masked();
        run.records = oracle.query(repro.sequence);
    } else if (bug.seqRepro != nullptr) {
        const auto& repro = *bug.seqRepro;
        run.records = fuzz::TirSequenceOracle(repro.program, repro.initial)
                          .query(repro.sequence);
    }
    return run;
}

namespace {

/** Cheap pre-check: a graph wrong-result with no attributable semantic
 *  defect is keyed by its raw trace, which ddmin candidates cannot be
 *  expected to reproduce; such records stay raw and skip the full-case
 *  oracle run entirely. */
bool
graphTargetReducible(const BugRecord& bug)
{
    return bug.kind != "wrong-result" ||
           !relevantSemanticDefects(bug.defects, bug.backend).empty();
}

} // namespace

bool
minimizeBug(BugRecord& bug,
            const std::vector<backends::Backend*>& backends,
            const ReduceOptions& options)
{
    if (bug.graphRepro != nullptr) {
        if (!graphTargetReducible(bug))
            return false;
        CaseCache cache;
        return minimizeGraphBug(bug, backends, options,
                                rerunRepro(bug, backends).records, cache);
    }
    if (bug.graphSeqRepro != nullptr)
        return minimizeGraphSeqBug(bug, options);
    if (bug.seqRepro != nullptr)
        return minimizeSeqBug(bug, options);
    return false;
}

void
minimizeBugs(std::vector<BugRecord>& bugs,
             const std::vector<backends::Backend*>& backends,
             const ReduceOptions& options)
{
    obs::PhaseSpan span("minimize");
    // All records of one flagged case share a GraphRepro; run the
    // full-case precondition once and share the candidate cache, so
    // per-record ddmins do not repeat each other's oracle runs.
    struct SharedRepro {
        std::shared_ptr<const Records> full;
        CaseCache cache;
    };
    std::map<const fuzz::GraphRepro*, SharedRepro> shared;
    for (auto& bug : bugs) {
        if (bug.graphRepro != nullptr) {
            if (!graphTargetReducible(bug))
                continue;
            auto& state = shared[bug.graphRepro.get()];
            if (state.full == nullptr) {
                state.full = std::make_shared<Records>(
                    rerunRepro(bug, backends).records);
            }
            minimizeGraphBug(bug, backends, options, *state.full,
                             state.cache);
        } else if (bug.graphSeqRepro != nullptr) {
            minimizeGraphSeqBug(bug, options);
        } else if (bug.seqRepro != nullptr) {
            minimizeSeqBug(bug, options);
        }
    }
}

bool
reproStillFires(const BugRecord& bug,
                const std::vector<backends::Backend*>& backends)
{
    return findFingerprint(rerunRepro(bug, backends).records,
                           fingerprintKey(bug)) != nullptr;
}

} // namespace nnsmith::reduce
