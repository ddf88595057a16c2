#include "fuzz/pass_fuzzer.h"

#include <algorithm>

#include "backends/defects.h"
#include "backends/graph_pass.h"
#include "difftest/compare.h"
#include "onnx/exporter.h"
#include "tirlite/tir_interp.h"

namespace nnsmith::fuzz {

using backends::BackendError;
using backends::DefectRegistry;
using backends::RunResult;
using tirlite::buffersEquivalent; // the shared bitwise oracle contract

namespace {

std::string
joinSequence(const std::vector<std::string>& sequence)
{
    std::string joined;
    for (size_t i = 0; i < sequence.size(); ++i) {
        if (i > 0)
            joined += ",";
        joined += sequence[i];
    }
    return joined;
}

std::unique_ptr<backends::Backend>
makeGraphPassBackend(const std::string& name)
{
    NNSMITH_ASSERT(backends::isGraphPassBackend(name),
                   "graph-pass sequence oracle for non-graph-pass backend ",
                   name);
    return name == "OrtLite" ? backends::makeOrtLite()
                             : backends::makeTrtLite();
}

} // namespace

PassSequenceFuzzer::PassSequenceFuzzer(uint64_t seed)
    : PassSequenceFuzzer(seed, Options())
{
}

PassSequenceFuzzer::PassSequenceFuzzer(uint64_t seed, Options options)
    : options_(options), rng_(seed)
{
}

IterationOutcome
PassSequenceFuzzer::iterate(
    const std::vector<backends::Backend*>& backend_list)
{
    if (options_.backend == "TVMLite")
        return iterateTir();
    NNSMITH_ASSERT(backends::isGraphPassBackend(options_.backend),
                   "PassSequenceFuzzer: no pass registry for backend ",
                   options_.backend);
    return iterateGraph(backend_list);
}

IterationOutcome
PassSequenceFuzzer::iterateTir()
{
    // Program: a fresh random TIR case, optionally mutated a few steps
    // (mutation introduces the Seq/extra-store shapes that make
    // pass-interaction defects like fusion-then-DSE reachable).
    tirlite::TirProgram program = tirlite::randomProgram(rng_);
    const int mutations =
        static_cast<int>(rng_.index(
            static_cast<size_t>(options_.maxMutations) + 1));
    for (int i = 0; i < mutations; ++i)
        program = tirlite::mutate(program, rng_);

    // Sequence: random subset + order of the registry.
    const auto sequence = tirlite::drawPassSequence(rng_);
    return runTirSequenceCase(program, sequence, options_.caseCost, rng_);
}

std::vector<BugRecord>
tirSequenceRecords(const std::vector<std::string>& sequence,
                   const std::function<bool(std::vector<std::string>&)>& run)
{
    std::vector<BugRecord> records;
    DefectRegistry::TraceScope trace_scope;
    std::vector<std::string> fired_semantic;
    try {
        if (run(fired_semantic) && fired_semantic.empty()) {
            // No seeded defect explains the mismatch: a genuine
            // pass-pipeline miscompile (the property test in
            // tests/pass_fuzz_test.cpp keeps this unreachable).
            BugRecord bug;
            bug.dedupKey = "TVMLite|wrong|tir.seq.miscompile";
            bug.backend = "TVMLite";
            bug.kind = "wrong-result";
            bug.detail = "pass sequence " + joinSequence(sequence) +
                         " changed interp output";
            records.push_back(std::move(bug));
        }
    } catch (const BackendError& error) {
        BugRecord bug;
        bug.dedupKey = "TVMLite|crash|" + error.kind();
        bug.backend = "TVMLite";
        bug.kind = "crash";
        bug.detail = error.what();
        bug.defects = trace_scope.trace();
        records.push_back(std::move(bug));
    }
    for (const auto& defect : fired_semantic) {
        BugRecord bug;
        bug.dedupKey = "TVMLite|wrong|" + defect;
        bug.backend = "TVMLite";
        bug.kind = "wrong-result";
        bug.detail = defect;
        bug.defects = {defect};
        records.push_back(std::move(bug));
    }
    return records;
}

TirSequenceOracle::TirSequenceOracle(const tirlite::TirProgram& program,
                                     tirlite::Buffers initial)
    : program_(program), initial_(std::move(initial)), reference_(initial_)
{
    if (!initial_.empty())
        tirlite::run(program_, reference_);
}

std::vector<BugRecord>
TirSequenceOracle::query(const std::vector<std::string>& sequence) const
{
    return tirSequenceRecords(
        sequence, [&](std::vector<std::string>& fired_semantic) {
            const auto optimized =
                tirlite::runTirPasses(program_, sequence, fired_semantic);
            if (initial_.empty())
                return false;
            tirlite::Buffers out = initial_;
            tirlite::run(optimized, out);
            return !buffersEquivalent(reference_, out);
        });
}

IterationOutcome
runTirSequenceCase(const tirlite::TirProgram& program,
                   const std::vector<std::string>& sequence,
                   VirtualMs case_cost, Rng& rng)
{
    IterationOutcome outcome;
    outcome.produced = true;
    outcome.cost = case_cost;

    tirlite::recordSequenceCoverage(sequence);
    outcome.instanceKeys.push_back("tirseq/" + joinSequence(sequence));

    // Differential oracle: unoptimized vs optimized interpretation
    // over identical initial buffers.
    tirlite::Buffers initial = tirlite::makeBuffers(program, rng);
    const TirSequenceOracle oracle(program, initial);
    outcome.bugs = oracle.query(sequence);
    if (!outcome.bugs.empty()) {
        // Repro for the pass-sequence reducer: the (mutated) program,
        // the flagged sequence, and the oracle's initial buffers.
        auto repro = std::make_shared<SeqRepro>();
        repro->program = program;
        repro->sequence = sequence;
        repro->initial = std::move(initial);
        for (auto& bug : outcome.bugs)
            bug.seqRepro = repro;
    }
    return outcome;
}

IterationOutcome
PassSequenceFuzzer::iterateGraph(
    const std::vector<backends::Backend*>& backend_list)
{
    backends::Backend* backend = nullptr;
    for (backends::Backend* candidate : backend_list) {
        if (candidate != nullptr &&
            candidate->name() == options_.backend)
            backend = candidate;
    }
    NNSMITH_ASSERT(backend != nullptr,
                   "PassSequenceFuzzer: backend ", options_.backend,
                   " not in the campaign's backend list");

    const VirtualMs generation_cost =
        options_.cost.generationPerOp * options_.generator.targetOpNodes;

    gen::GraphGenerator generator(options_.generator, rng_.next());
    const auto model = generator.generate();
    if (!model.has_value()) {
        IterationOutcome outcome;
        outcome.cost = generation_cost;
        return outcome; // produced stays false; rare, retried next iter
    }
    const exec::LeafValues leaves = exec::randomLeaves(model->graph, rng_);

    // Sequence: random subset + order of the backend's registry.
    const auto sequence =
        backends::drawGraphPassSequence(options_.backend, rng_);

    IterationOutcome outcome = runGraphSequenceCase(
        *backend, model->graph, leaves, sequence, options_.cost);
    outcome.cost += generation_cost;
    return outcome;
}

GraphSequenceOracle::GraphSequenceOracle(backends::Backend& backend,
                                         const graph::Graph& graph,
                                         const exec::LeafValues& leaves)
    : backend_(backend), leaves_(leaves)
{
    prepare(graph);
}

GraphSequenceOracle::GraphSequenceOracle(const std::string& backend,
                                         const graph::Graph& graph,
                                         const exec::LeafValues& leaves)
    : owned_(makeGraphPassBackend(backend)), backend_(*owned_),
      leaves_(leaves)
{
    prepare(graph);
}

void
GraphSequenceOracle::prepare(const graph::Graph& graph)
{
    DefectRegistry::TraceScope trace_scope;
    try {
        model_ = onnx::exportGraph(graph);
    } catch (const BackendError& error) {
        // Exporter defects are the graph campaign's quarry, not a
        // pass-sequence find: the sequence never runs.
        masked_ = "Exporter|crash|" + error.kind();
        return;
    }
    exported_ = true;
    reference_ = backend_.run(model_, leaves_, backends::OptLevel::kO0);
    // An import-stage crash fires with or without passes — not a
    // pass-sequence find either.
    if (reference_.status == RunResult::Status::kCrash)
        masked_ = backend_.name() + "|crash|" + reference_.crashKind;
    fixedTrace_ = trace_scope.trace();
}

std::vector<BugRecord>
GraphSequenceOracle::query(const std::vector<std::string>& sequence) const
{
    std::vector<BugRecord> records;
    if (!masked_.empty())
        return records;
    const std::string backend_name = backend_.name();
    DefectRegistry::TraceScope trace_scope;
    const RunResult result =
        backend_.runWithPasses(model_, leaves_, sequence);

    if (result.status == RunResult::Status::kCrash) {
        BugRecord bug;
        bug.dedupKey = backend_name + "|crash|" + result.crashKind;
        bug.backend = backend_name;
        bug.kind = "crash";
        bug.detail = result.crashMessage;
        bug.defects = fixedTrace_;
        bug.defects.insert(bug.defects.end(), trace_scope.trace().begin(),
                           trace_scope.trace().end());
        records.push_back(std::move(bug));
        return records;
    }
    // Pass-stage semantic firings: import-stage defects perturb both
    // runs identically and cancel out.
    const auto fired = backends::subtractFired(result.firedSemantic,
                                               reference_.firedSemantic);
    std::vector<std::string> novel; // order-preserving dedup
    for (const auto& id : fired) {
        if (std::find(novel.begin(), novel.end(), id) == novel.end())
            novel.push_back(id);
    }
    for (const auto& defect : novel) {
        BugRecord bug;
        bug.dedupKey = backend_name + "|wrong|" + defect;
        bug.backend = backend_name;
        bug.kind = "wrong-result";
        bug.detail = defect;
        bug.defects = {defect};
        records.push_back(std::move(bug));
    }
    if (novel.empty() && difftest::allFinite(reference_.outputs) &&
        !difftest::allClose(result.outputs, reference_.outputs,
                            difftest::CompareOptions())) {
        // No seeded defect explains the mismatch: a genuine
        // pass-pipeline miscompile (graph passes are scan-only, so the
        // property test keeps this unreachable).
        BugRecord bug;
        bug.dedupKey = backend_name + "|wrong|graph.seq.miscompile";
        bug.backend = backend_name;
        bug.kind = "wrong-result";
        bug.detail = "pass sequence " + joinSequence(sequence) +
                     " changed backend output";
        records.push_back(std::move(bug));
    }
    return records;
}

IterationOutcome
runGraphSequenceCase(backends::Backend& backend, const graph::Graph& graph,
                     const exec::LeafValues& leaves,
                     const std::vector<std::string>& sequence,
                     const CostModel& cost)
{
    const std::string backend_name = backend.name();
    IterationOutcome outcome;
    outcome.produced = true;

    backends::recordGraphSequenceCoverage(backend_name, sequence);
    outcome.instanceKeys.push_back("passseq/" + backend_name + "/" +
                                   joinSequence(sequence));

    const GraphSequenceOracle oracle(backend, graph, leaves);
    if (!oracle.exported())
        return outcome;
    // Two compiles + two runs of virtual cost.
    const VirtualMs compile =
        backend_name == "TrtLite" ? cost.backendCompileTrt
                                  : cost.backendCompileOrt;
    outcome.cost += 2 * compile + 2 * cost.run;

    outcome.bugs = oracle.query(sequence);
    if (!outcome.bugs.empty()) {
        auto repro = std::make_shared<GraphSeqRepro>();
        repro->graph = graph;
        repro->leaves = leaves;
        repro->sequence = sequence;
        for (auto& bug : outcome.bugs)
            bug.graphSeqRepro = repro;
    }
    return outcome;
}

} // namespace nnsmith::fuzz
