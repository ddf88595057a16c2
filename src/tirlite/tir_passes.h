/**
 * @file
 * Low-level TIRLite optimization passes (the analogue of TVM's "up to
 * 58 low-level optimizations", §5.1), organized as a **pass registry**:
 * each optimization is a named `TirPass` that can be run standalone or
 * composed into an arbitrary sequence, which is what makes pass
 * *order* and pass *subset* a fuzzable dimension (the pass-interaction
 * bug class Tzer targets). Each pass is instrumented with dynamic
 * coverage branches under "tvmlite/pass/<pass>" (pass-only) and hosts
 * the tvm.tir.* seeded defects. See DESIGN.md "TIR pass pipeline &
 * sequence fuzzing". The default pipeline and the sequence
 * draw/mutate/coverage helpers are shared with the graph-level
 * registries of OrtLite/TrtLite (backends/graph_pass.h, keyed by
 * backend name "TVMLite").
 */
#ifndef NNSMITH_TIRLITE_TIR_PASSES_H
#define NNSMITH_TIRLITE_TIR_PASSES_H

#include <string>
#include <vector>

#include "tirlite/tir.h"

namespace nnsmith::tirlite {

/**
 * One registered low-level pass. `apply` returns the transformed
 * program; it throws backends::BackendError for crash-symptom
 * tvm.tir.* defects whose structural trigger matches, and appends
 * semantic defect ids to @p fired_semantic (the driver dedups).
 * Every pass is semantics-preserving on defect-free programs — the
 * contract the sequence fuzzer's differential oracle checks.
 */
struct TirPass {
    const char* name;
    TirProgram (*apply)(const TirProgram& program,
                        std::vector<std::string>& fired_semantic);
};

/** All registered passes, in a stable registration order. */
const std::vector<TirPass>& tirPasses();

/** Look up a pass by name; nullptr when unknown. */
const TirPass* findTirPass(const std::string& name);

/**
 * Run an explicit pass sequence. Unknown names panic. Semantic defect
 * ids are appended to @p fired_semantic **deduplicated** — a defect
 * firing twice (two triggers in one program, or one pass run twice in
 * a sequence) is reported once.
 */
TirProgram runTirPasses(const TirProgram& program,
                        const std::vector<std::string>& pass_names,
                        std::vector<std::string>& fired_semantic);

/**
 * Structural hash of a program (FNV-1a over the expression/statement
 * trees). TVMLite's pass-fuzz mode derives each lowered program's pass
 * sequence from this hash, so the sequence is a pure function of the
 * test case — which keeps sharded campaigns byte-identical.
 */
uint64_t hashTirProgram(const TirProgram& program);

} // namespace nnsmith::tirlite

#endif // NNSMITH_TIRLITE_TIR_PASSES_H
