/**
 * @file
 * The differential-testing oracle (paper Fig. 2 right and §4).
 *
 * One test case = one concrete model + one set of leaf tensors.
 * The reference interpreter (PyTorchLite) produces the oracle outputs;
 * every backend compiles + runs the exported OnnxLite model; verdicts
 * are crash / wrong-result / pass, with the paper's O0-recompilation
 * protocol for localizing wrong results to the optimizer.
 */
#ifndef NNSMITH_DIFFTEST_ORACLE_H
#define NNSMITH_DIFFTEST_ORACLE_H

#include <memory>
#include <string>
#include <vector>

#include "backends/backend.h"
#include "difftest/compare.h"
#include "exec/interpreter.h"
#include "graph/graph.h"

namespace nnsmith::difftest {

/** Outcome of one backend on one test case. */
enum class Verdict {
    kPass,
    kCrash,
    kWrongResult,
    kSkippedNaN, ///< reference was numerically invalid; not compared
};

std::string verdictName(Verdict verdict);

/** One backend's result. */
struct BackendVerdict {
    std::string backend;
    Verdict verdict = Verdict::kPass;
    std::string crashKind;    ///< dedup key for crashes
    std::string detail;       ///< message / first difference
    /** For wrong results: O0 disagreed with O3, implicating the
     *  optimizer (paper's localization). */
    bool localizedToOptimizer = false;
};

/** Full result of one differential test case. */
struct CaseResult {
    bool exportOk = true;
    std::string exportCrashKind;  ///< exporter bug id when !exportOk
    bool referenceValid = true;   ///< no NaN/Inf anywhere in reference
    std::vector<BackendVerdict> verdicts;
    /** Ground-truth seeded defects whose trigger matched (used by the
     *  Table 3 bench for found/seeded accounting). */
    std::vector<std::string> triggeredDefects;

    bool anyBugSignal() const;
};

/**
 * Run a batch of differential test cases sharing one graph: lane l is
 * the case (graph, lanes[l]), each with its own reference run. The
 * model is exported once — export depends only on the graph, so its
 * outcome and defect triggers are common to every lane. Lane l's
 * triggeredDefects are the export triggers followed by the lane's
 * backend triggers not already among them, the first-appearance order
 * of one trace window around the whole case.
 */
std::vector<CaseResult>
runCaseBatch(const graph::Graph& graph,
             const std::vector<exec::LeafValues>& lanes,
             const std::vector<backends::Backend*>& backend_list,
             const CompareOptions& options = CompareOptions());

/**
 * Run one differential test over @p backends: the one-lane
 * runCaseBatch. @p leaves must bind every input and weight of @p graph
 * (value-id keyed).
 */
CaseResult runCase(const graph::Graph& graph,
                   const exec::LeafValues& leaves,
                   const std::vector<backends::Backend*>& backend_list,
                   const CompareOptions& options = CompareOptions());

/** The standard backend trio (OrtLite, TVMLite, TrtLite). */
std::vector<std::unique_ptr<backends::Backend>> makeAllBackends();

} // namespace nnsmith::difftest

#endif // NNSMITH_DIFFTEST_ORACLE_H
