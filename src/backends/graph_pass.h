/**
 * @file
 * The backend-agnostic graph-pass registry, and the one pass-sequence
 * vocabulary of all three compilers under test.
 *
 * TVMLite's low-level TIR stage is a *named pass registry*
 * (tirlite/tir_passes.h), so pass subset and order are a fuzzable
 * dimension. This header lifts the same structure to the graph level:
 * OrtLite's pattern optimizer and TrtLite's builder tactics are
 * decomposed into named `GraphPass` entries. Drawing, mutating,
 * binning and staging a sequence is then one implementation keyed by
 * backend name (passNames ... stagePassSequence below), so
 * `--pass-fuzz`, the pass-sequence fuzzer and reducer, corpus-guided
 * mutation and corpus replay work uniformly across the three (the
 * paper's Fig. 8 Venn, lifted to pass space).
 *
 * Graph passes are *scan-only*: OrtLite and TrtLite execute models
 * through the shared interpreter, so a pass never rewrites the model —
 * it walks it the way the real optimizer would, records coverage,
 * throws backends::BackendError for crash-symptom defects whose
 * structural trigger matches, and appends semantic defect ids to
 * `fired_semantic` (the driver perturbs outputs per fired id, exactly
 * like the monolithic optimizers did). Running the backend's default
 * pipeline is therefore bit-for-bit the historical kO3 behavior.
 *
 * Coverage: every backend records pass bins under one canonical
 * `<backend>/pass/...` scheme (DESIGN.md "Coverage component naming"
 * has the old->new mapping). Sequence bins land under
 * `<backend>/pass/seq`.
 */
#ifndef NNSMITH_BACKENDS_GRAPH_PASS_H
#define NNSMITH_BACKENDS_GRAPH_PASS_H

#include <functional>
#include <string>
#include <vector>

#include "onnx/onnx_lite.h"
#include "support/rng.h"

namespace nnsmith::backends {

/**
 * One registered graph-level pass of a backend.
 *
 * `semanticsPreserving` is false exactly for passes that host a
 * *semantic* (wrong-result) seeded defect; every other pass must keep
 * outputs bitwise identical to the pass-off run on any model — the
 * contract the cross-backend property test (tests/graph_pass_test.cpp)
 * checks with the difftest comparator.
 */
struct GraphPass {
    const char* name;     ///< e.g. "fuse.matmul_add_gemm"
    const char* category; ///< "analysis" | "fuse" | "simplify" | "misc" | "tactic"
    bool semanticsPreserving;
    void (*apply)(const onnx::OnnxModel& model,
                  std::vector<std::string>& fired_semantic);
};

/** Does @p backend ("OrtLite" | "TrtLite") own a graph-pass registry?
 *  TVMLite's sequenceable passes live at the TIR level instead. */
bool isGraphPassBackend(const std::string& backend);

/** All passes of @p backend, in stable registration order (which is
 *  also the default pipeline order). Panics for other backends. */
const std::vector<GraphPass>& graphPasses(const std::string& backend);

/** Look up a pass by name; nullptr when unknown. */
const GraphPass* findGraphPass(const std::string& backend,
                               const std::string& name);

/**
 * Run an explicit pass sequence over @p model. Unknown names panic.
 * Semantic defect ids are appended to @p fired_semantic exactly as
 * fired (NOT deduplicated — the historical monolithic optimizers
 * perturbed once per firing, and the default pipeline must stay
 * bit-identical to them).
 */
void runGraphPasses(const onnx::OnnxModel& model,
                    const std::string& backend,
                    const std::vector<std::string>& pass_names,
                    std::vector<std::string>& fired_semantic);

// ---- the pass-sequence vocabulary, keyed by backend name ----------------
//
// One implementation for all three compilers: @p backend is "TVMLite"
// (the TIR registry, tirlite/tir_passes.h) or "OrtLite"/"TrtLite" (the
// graph registries above); any other name panics. What differs per
// registry kind is only how a sequence runs (runTirPasses transforms
// and dedups fired ids, runGraphPasses scans and keeps duplicates).

/** The registry's pass names, in stable registration order. */
const std::vector<std::string>& passNames(const std::string& backend);

/**
 * The fixed default pipeline — the order the non-fuzzed kO3 compile
 * uses. For the graph registries it is every registered pass in
 * registration order; TVMLite's is simplify-index -> fold -> unroll ->
 * vectorize-annotate -> dead-store-elim -> cse.
 */
const std::vector<std::string>& defaultPipeline(const std::string& backend);

/** Draw a random pass sequence — a nonempty subset of the registry in
 *  random order — deterministically from @p rng. */
std::vector<std::string> drawPassSequence(const std::string& backend,
                                          Rng& rng);

/** Splice in a registered pass, drop an element, or swap two
 *  positions (one of the three, drawn from @p rng). Every name in the
 *  result is registered with @p backend and the result is nonempty. */
std::vector<std::string>
mutatePassSequence(const std::string& backend,
                   const std::vector<std::string>& sequence, Rng& rng);

/**
 * The sequence-coverage bins of @p sequence: length bucket, first and
 * last pass, and every adjacent ordered pass pair ("pair/<a>><b>" —
 * the pass-interaction structure). Shared by recordSequenceCoverage
 * and bench_pass_venn (the coverage registry exposes counts, not key
 * strings).
 */
std::vector<std::string> sequenceCoverageBins(
    const std::vector<std::string>& sequence);

/** Record @p sequence's bins under `<backend lowercase>/pass/seq`
 *  (pass-only sites). For TrtLite these bins describe the *fuzzer's
 *  input space*, not compiler internals — the closed-source analogue
 *  still exports no optimizer instrumentation (§5.1). */
void recordSequenceCoverage(const std::string& backend,
                            const std::vector<std::string>& sequence);

/**
 * The seeded `--pass-fuzz` stage: the sequence one compile runs —
 * OrtLite/TrtLite per model at kO3, TVMLite per lowered program.
 * With @p pass_fuzz_seed == 0 it returns defaultPipeline(backend)
 * itself: @p case_hash is not called, nothing is recorded and
 * @p drawn stays untouched. Otherwise it draws into @p drawn from
 * `Rng(pass_fuzz_seed ^ case_hash())` — a pure function of the test
 * case, so sharded campaigns stay byte-identical — records its
 * sequence-coverage bins, and returns @p drawn.
 */
const std::vector<std::string>&
stagePassSequence(const std::string& backend, uint64_t pass_fuzz_seed,
                  const std::function<uint64_t()>& case_hash,
                  std::vector<std::string>& drawn);

/** Structural FNV-1a hash of a model (over its stable text
 *  serialization) — the graph-level hashTirProgram analogue, and the
 *  case hash OrtLite/TrtLite pass to stagePassSequence. */
uint64_t hashOnnxModel(const onnx::OnnxModel& model);

/**
 * Multiset subtraction over fired-semantic lists, order-preserving:
 * the entries of @p fired not matched by an entry of @p baseline.
 * The pass-fuzz oracle (run(kO0) vs runWithPasses) uses this to
 * attribute firings to the pass stage: import-stage defects appear in
 * both lists and cancel, leaving exactly the pass-stage firings.
 */
std::vector<std::string> subtractFired(
    const std::vector<std::string>& fired,
    const std::vector<std::string>& baseline);

// Per-backend registries (defined next to each backend's passes).
const std::vector<GraphPass>& ortLiteGraphPasses();
const std::vector<GraphPass>& trtLiteGraphPasses();

} // namespace nnsmith::backends

#endif // NNSMITH_BACKENDS_GRAPH_PASS_H
