#include "reduce/reducer.h"

#include <map>
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

using Records = std::vector<BugRecord>;

/**
 * Memoized candidate evaluations, shared between the bug records of
 * one flagged case (they all carry the same repro but pin
 * different fingerprints, so their ddmins probe overlapping kept-sets;
 * each oracle run is a full export + compile + execute). Keyed by the
 * producer-closed kept op-node set; nullptr records a candidate whose
 * rebuilt subgraph failed validation.
 */
using CaseCache = std::map<std::vector<int>, std::shared_ptr<const Records>>;

bool
minimizeGraphBug(BugRecord& bug, const fuzz::GraphRepro& repro,
                 const std::vector<backends::Backend*>& backends,
                 const ReduceOptions& options, const Records& full_records,
                 CaseCache& cache)
{
    const std::string target = fingerprintKey(bug);
    // The full case must reproduce its own fingerprint (deterministic
    // oracle; a mismatch means the record is not reducible as-is).
    if (findFingerprint(full_records, target) == nullptr)
        return false;

    const std::vector<int> ops = repro.graph.opOrder();
    auto evaluate = [&](const std::set<int>& keep) -> const Records* {
        std::vector<int> key(keep.begin(), keep.end());
        auto it = cache.find(key);
        if (it == cache.end()) {
            const auto candidate =
                fuzz::rebuildGraph(repro.graph, repro.leaves, keep);
            std::shared_ptr<const Records> records;
            if (candidate.has_value() &&
                graph::validate(candidate->graph).ok()) {
                records = std::make_shared<Records>(
                    fuzz::bugsFromCase(difftest::runCase(
                        candidate->graph, candidate->leaves, backends)));
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

    auto reduced = fuzz::rebuildGraph(repro.graph, repro.leaves, keep);
    if (!reduced.has_value())
        return false; // no op to keep: a repro without ops
    auto minimized = std::make_shared<const fuzz::Repro>(std::move(*reduced));
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
    bug.repro = std::move(minimized);
    bug.dedupKey = target;
    bug.minimized = true;
    return true;
}

// ---- PassSequenceReducer --------------------------------------------------

/**
 * ddmin @p sequence to the minimal subsequence on which @p oracle (the
 * repro kind's TirSequenceOracle or GraphSequenceOracle) still flags
 * @p bug's fingerprint, shrink @p sequence to it, and record the
 * outcome on @p bug (sizes, the minimized run's own trigger trace, the
 * canonical key). Queries are memoized by subsequence. Returns false —
 * leaving both untouched — when the full sequence does not flag the
 * fingerprint.
 */
template <typename Oracle>
bool
minimizeSequence(BugRecord& bug, std::vector<std::string>& sequence,
                 const Oracle& oracle, const ReduceOptions& options)
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
            Records records = oracle.query(key);
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
        return false;

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
    sequence = subsequence(minimal);
    return true;
}

/**
 * Minimize a TIR or graph-pass sequence repro: the program (or the
 * model, its export and its kO0 reference run) is fixed once per
 * repro under the oracle of its kind; only the sequence shrinks.
 */
bool
minimizeSequenceBug(BugRecord& bug, const ReduceOptions& options)
{
    std::shared_ptr<fuzz::Repro> repro;
    if (const auto* original =
            std::get_if<fuzz::GraphSeqRepro>(bug.repro.get())) {
        // Canonicalize the model up front: rebuild it with all op
        // nodes kept, which renumbers value ids densely in topological
        // order — the canonical form the corpus round-trip contract
        // requires (graph reduction gets this for free from its
        // kept-set rebuilds). The oracle runs against the canonical
        // model below, so the repro's still-fires check covers the
        // renumbering too.
        auto canonical = fuzz::rebuildGraph(original->graph, original->leaves);
        if (!canonical.has_value())
            return false; // no op to keep: a repro without ops
        repro = std::make_shared<fuzz::Repro>(
            fuzz::GraphSeqRepro{std::move(canonical->graph),
                                std::move(canonical->leaves),
                                original->sequence});
    } else {
        repro = std::make_shared<fuzz::Repro>(*bug.repro);
    }
    bool shrunk;
    if (auto* tir = std::get_if<fuzz::SeqRepro>(repro.get())) {
        shrunk = minimizeSequence(
            bug, tir->sequence,
            fuzz::TirSequenceOracle(tir->program, tir->initial), options);
    } else {
        auto& graph_seq = std::get<fuzz::GraphSeqRepro>(*repro);
        shrunk = minimizeSequence(
            bug, graph_seq.sequence,
            fuzz::GraphSequenceOracle(bug.backend, graph_seq.graph,
                                      graph_seq.leaves),
            options);
    }
    if (!shrunk)
        return false;
    bug.repro = std::move(repro);
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
        (bug.repro != nullptr &&
         !std::holds_alternative<fuzz::GraphRepro>(*bug.repro)))
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
    if (bug.repro == nullptr)
        return run;
    if (const auto* graph = std::get_if<fuzz::GraphRepro>(bug.repro.get())) {
        run.records = fuzz::bugsFromCase(
            difftest::runCase(graph->graph, graph->leaves, backends));
    } else if (const auto* tir =
                   std::get_if<fuzz::SeqRepro>(bug.repro.get())) {
        run.records = fuzz::TirSequenceOracle(tir->program, tir->initial)
                          .query(tir->sequence);
    } else {
        const auto& graph_seq = std::get<fuzz::GraphSeqRepro>(*bug.repro);
        const fuzz::GraphSequenceOracle oracle(bug.backend, graph_seq.graph,
                                               graph_seq.leaves);
        run.masked = oracle.masked();
        run.records = oracle.query(graph_seq.sequence);
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

void
minimizeBugs(std::vector<BugRecord>& bugs,
             const std::vector<backends::Backend*>& backends,
             const ReduceOptions& options)
{
    obs::PhaseSpan span("minimize");
    // All records of one flagged case share a repro; for a graph case,
    // run the full-case precondition once and share the candidate
    // cache, so per-record ddmins do not repeat each other's oracle
    // runs.
    struct SharedRepro {
        std::shared_ptr<const Records> full;
        CaseCache cache;
    };
    std::map<const fuzz::Repro*, SharedRepro> shared;
    for (auto& bug : bugs) {
        if (bug.repro == nullptr)
            continue;
        const auto* graph = std::get_if<fuzz::GraphRepro>(bug.repro.get());
        if (graph == nullptr) {
            minimizeSequenceBug(bug, options);
            continue;
        }
        if (!graphTargetReducible(bug))
            continue;
        auto& state = shared[bug.repro.get()];
        if (state.full == nullptr) {
            state.full = std::make_shared<Records>(
                rerunRepro(bug, backends).records);
        }
        minimizeGraphBug(bug, *graph, backends, options, *state.full,
                         state.cache);
    }
}

bool
minimizeBug(BugRecord& bug,
            const std::vector<backends::Backend*>& backends,
            const ReduceOptions& options)
{
    // Every successful minimization installs a fresh repro.
    const auto original = bug.repro;
    std::vector<BugRecord> one = {bug};
    minimizeBugs(one, backends, options);
    bug = std::move(one.front());
    return bug.repro != original;
}

bool
reproStillFires(const BugRecord& bug,
                const std::vector<backends::Backend*>& backends)
{
    return findFingerprint(rerunRepro(bug, backends).records,
                           fingerprintKey(bug)) != nullptr;
}

} // namespace nnsmith::reduce
