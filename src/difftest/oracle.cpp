#include "difftest/oracle.h"

#include <algorithm>

#include "exec/batched.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "onnx/exporter.h"
#include "support/logging.h"

namespace nnsmith::difftest {

using backends::Backend;
using backends::BackendError;
using backends::DefectRegistry;
using backends::OptLevel;
using backends::RunResult;

std::string
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::kPass: return "pass";
      case Verdict::kCrash: return "crash";
      case Verdict::kWrongResult: return "wrong-result";
      case Verdict::kSkippedNaN: return "skipped-nan";
    }
    NNSMITH_PANIC("bad Verdict");
}

bool
CaseResult::anyBugSignal() const
{
    if (!exportOk)
        return true;
    for (const auto& v : verdicts) {
        if (v.verdict == Verdict::kCrash ||
            v.verdict == Verdict::kWrongResult)
            return true;
    }
    return false;
}

CaseResult
runCase(const graph::Graph& graph, const exec::LeafValues& leaves,
        const std::vector<Backend*>& backend_list,
        const CompareOptions& options)
{
    CaseResult result;
    // RAII window: the trace is cleared again on every exit path, so a
    // crashing export cannot leak its triggers into the next case.
    DefectRegistry::TraceScope trace_scope;

    // Reference (oracle) execution — a "free lunch" by-product of the
    // gradient search (§4).
    const auto reference = [&] {
        obs::PhaseSpan span("oracle");
        return exec::execute(graph, leaves);
    }();
    result.referenceValid = reference.numericallyValid();

    // Export to OnnxLite; exporter bugs surface here.
    onnx::OnnxModel model;
    try {
        model = onnx::exportGraph(graph);
    } catch (const BackendError& error) {
        result.exportOk = false;
        result.exportCrashKind = error.kind();
        result.triggeredDefects = trace_scope.trace();
        return result;
    }

    for (Backend* backend : backend_list) {
        BackendVerdict verdict;
        verdict.backend = backend->name();
        const RunResult o3 = [&] {
            obs::PhaseSpan span("exec:", backend->name());
            return backend->run(model, leaves, OptLevel::kO3);
        }();
        obs::counterAdd("oracle.comparisons");
        if (o3.status == RunResult::Status::kCrash) {
            verdict.verdict = Verdict::kCrash;
            verdict.crashKind = o3.crashKind;
            verdict.detail = o3.crashMessage;
            obs::counterAdd("oracle.crashes");
        } else if (!result.referenceValid) {
            // NaN/Inf anywhere in the reference: no comparison (§2.3's
            // numeric-validity requirement).
            verdict.verdict = Verdict::kSkippedNaN;
            obs::counterAdd("oracle.skipped_nan");
        } else if (!allClose(o3.outputs, reference.outputs, options)) {
            obs::counterAdd("oracle.mismatches");
            verdict.verdict = Verdict::kWrongResult;
            verdict.detail =
                firstDifference(o3.outputs, reference.outputs, options);
            // Fault localization: recompile at O0 (paper §4). If O0
            // disagrees with the optimized run, the optimization is
            // wrong; otherwise suspect the conversion path.
            const RunResult o0 =
                backend->run(model, leaves, OptLevel::kO0);
            verdict.localizedToOptimizer =
                o0.status == RunResult::Status::kOk &&
                !allClose(o0.outputs, o3.outputs, options);
        }
        result.verdicts.push_back(std::move(verdict));
    }
    result.triggeredDefects = trace_scope.trace();
    return result;
}

std::vector<CaseResult>
runCaseBatch(const graph::Graph& graph,
             const std::vector<exec::LeafValues>& lanes,
             const std::vector<Backend*>& backend_list,
             const CompareOptions& options)
{
    std::vector<CaseResult> results(lanes.size());

    // Batched reference execution: one topo walk for all lanes. The
    // interpreter and kernels fire no defect triggers, so running the
    // reference outside the per-lane trace windows below changes
    // nothing about what each window records.
    const auto references = [&] {
        obs::PhaseSpan span("oracle");
        return exec::executeBatched(graph, lanes);
    }();

    // Export once — it depends only on the graph, so every sequential
    // per-case run would produce this exact outcome and this exact
    // (deduplicated) trigger prefix.
    std::vector<std::string> export_trace;
    onnx::OnnxModel model;
    bool export_ok = true;
    std::string export_kind;
    {
        DefectRegistry::TraceScope export_scope;
        try {
            model = onnx::exportGraph(graph);
        } catch (const BackendError& error) {
            export_ok = false;
            export_kind = error.kind();
        }
        export_trace = export_scope.trace();
    }
    if (!export_ok) {
        for (size_t l = 0; l < lanes.size(); ++l) {
            results[l].exportOk = false;
            results[l].exportCrashKind = export_kind;
            results[l].referenceValid = references[l].numericallyValid();
            results[l].triggeredDefects = export_trace;
        }
        return results;
    }

    for (size_t l = 0; l < lanes.size(); ++l) {
        CaseResult& result = results[l];
        result.referenceValid = references[l].numericallyValid();
        // Fresh per-lane window: backend triggers of one lane cannot
        // leak into the next, exactly like per-case TraceScopes.
        DefectRegistry::TraceScope lane_scope;
        for (Backend* backend : backend_list) {
            BackendVerdict verdict;
            verdict.backend = backend->name();
            const RunResult o3 = [&] {
                obs::PhaseSpan span("exec:", backend->name());
                return backend->run(model, lanes[l], OptLevel::kO3);
            }();
            obs::counterAdd("oracle.comparisons");
            if (o3.status == RunResult::Status::kCrash) {
                verdict.verdict = Verdict::kCrash;
                verdict.crashKind = o3.crashKind;
                verdict.detail = o3.crashMessage;
                obs::counterAdd("oracle.crashes");
            } else if (!result.referenceValid) {
                verdict.verdict = Verdict::kSkippedNaN;
                obs::counterAdd("oracle.skipped_nan");
            } else if (!allClose(o3.outputs, references[l].outputs,
                                 options)) {
                obs::counterAdd("oracle.mismatches");
                verdict.verdict = Verdict::kWrongResult;
                verdict.detail = firstDifference(
                    o3.outputs, references[l].outputs, options);
                const RunResult o0 =
                    backend->run(model, lanes[l], OptLevel::kO0);
                verdict.localizedToOptimizer =
                    o0.status == RunResult::Status::kOk &&
                    !allClose(o0.outputs, o3.outputs, options);
            }
            result.verdicts.push_back(std::move(verdict));
        }
        // Compose the lane's trace the way one sequential window would:
        // export triggers first, then the lane's backend triggers with
        // duplicates (already recorded by the export) dropped.
        result.triggeredDefects = export_trace;
        for (const std::string& id : lane_scope.trace()) {
            if (std::find(export_trace.begin(), export_trace.end(), id) ==
                export_trace.end())
                result.triggeredDefects.push_back(id);
        }
    }
    return results;
}

std::vector<std::unique_ptr<Backend>>
makeAllBackends()
{
    std::vector<std::unique_ptr<Backend>> trio;
    trio.push_back(nnsmith::backends::makeOrtLite());
    trio.push_back(nnsmith::backends::makeTvmLite());
    trio.push_back(nnsmith::backends::makeTrtLite());
    return trio;
}

} // namespace nnsmith::difftest
