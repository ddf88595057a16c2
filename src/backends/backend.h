/**
 * @file
 * The compiler-under-test interface.
 *
 * Each backend compiles an OnnxLite model (import -> optimization
 * passes -> executable) and runs it on given leaf tensors. `kO0`
 * skips all transformation passes — the paper's fault-localization
 * recompilation mode (§4).
 */
#ifndef NNSMITH_BACKENDS_BACKEND_H
#define NNSMITH_BACKENDS_BACKEND_H

#include <memory>

#include "backends/defects.h"
#include "exec/interpreter.h"
#include "onnx/onnx_lite.h"

namespace nnsmith::backends {

/** Optimization level. */
enum class OptLevel { kO0, kO3 };

/** Result of one compile+run. */
struct RunResult {
    enum class Status { kOk, kCrash } status = Status::kOk;
    std::vector<tensor::Tensor> outputs; ///< in model.outputs order
    std::string crashKind;    ///< stable id for crash deduplication
    std::string crashMessage; ///< human-readable diagnostic

    /** Semantic defect ids that fired (and perturbed the outputs), in
     *  firing order, duplicates kept; empty on crash. The
     *  pass-sequence fuzzer subtracts the kO0 run's list to attribute
     *  wrong results to pass-stage defects. */
    std::vector<std::string> firedSemantic;
};

/** A compiler under test. */
class Backend {
  public:
    virtual ~Backend() = default;

    virtual std::string name() const = 0;
    virtual System system() const = 0;

    /** Compile and run; catches BackendError into kCrash results. */
    RunResult run(const onnx::OnnxModel& model,
                  const exec::LeafValues& leaves, OptLevel level);

    /**
     * Compile and run with an explicit graph-pass sequence instead of
     * the default kO3 pipeline (backends/graph_pass.h). Only backends
     * with a graph-pass registry (OrtLite, TrtLite) support this;
     * others panic. Same crash/perturbation contract as run().
     */
    RunResult runWithPasses(const onnx::OnnxModel& model,
                            const exec::LeafValues& leaves,
                            const std::vector<std::string>& pass_names);

  protected:
    /**
     * The backend's one compile+run body (import -> passes ->
     * execute), shared by run() and runWithPasses(); throws
     * BackendError on crash. At kO3 it runs @p pass_names when given
     * (runWithPasses, graph-pass backends only), else the backend's
     * own seeded pass stage; kO0 runs no pass.
     * @param fired_semantic collects semantic defect ids whose trigger
     * matched; run() perturbs the outputs for each.
     */
    virtual std::vector<tensor::Tensor>
    runImpl(const onnx::OnnxModel& model, const exec::LeafValues& leaves,
            OptLevel level, const std::vector<std::string>* pass_names,
            std::vector<std::string>& fired_semantic) = 0;
};

/**
 * OrtLite. With @p pass_fuzz_seed == 0 (the default) kO3 runs the
 * fixed default pipeline of the graph-pass registry — bit-for-bit the
 * historical monolithic optimizer. With a nonzero seed it runs a
 * randomized pass sequence per model, drawn deterministically from
 * `pass_fuzz_seed ^ hashOnnxModel(model)` — a pure function of the
 * test case, so sharded campaigns stay byte-identical.
 */
std::unique_ptr<Backend> makeOrtLite(uint64_t pass_fuzz_seed = 0);

/**
 * TVMLite. With @p pass_fuzz_seed == 0 (the default) the low-level
 * TIR stage runs the fixed default pipeline. With a nonzero seed it
 * runs a *randomized* pass sequence per lowered program, drawn
 * deterministically from `pass_fuzz_seed ^ hashTirProgram(program)` —
 * a pure function of the test case, so sharded campaigns stay
 * byte-identical (DESIGN.md "TIR pass pipeline & sequence fuzzing").
 */
std::unique_ptr<Backend> makeTvmLite(uint64_t pass_fuzz_seed = 0);

/** TrtLite. Same pass-fuzz contract as makeOrtLite: a nonzero seed
 *  randomizes the builder-tactic sequence per model. */
std::unique_ptr<Backend> makeTrtLite(uint64_t pass_fuzz_seed = 0);

/** The backend called @p name ("OrtLite" | "TVMLite" | "TrtLite"),
 *  built by its make* function above; panics on any other name. */
std::unique_ptr<Backend> makeBackend(const std::string& name,
                                     uint64_t pass_fuzz_seed = 0);

/**
 * Mark @p fraction of TVMLite's pattern-insensitive shared runtime
 * branches covered. Importing any model covers all of it; the Tzer
 * baseline (which links the compiler but skips the frontend) covers a
 * large fraction — reproducing Fig. 8a's big common region.
 */
void hitTvmSharedInfra(double fraction);

// ---- shared backend plumbing (model_query) --------------------------------

/** Producer node of an OnnxLite value, or nullptr for leaves. */
const onnx::OnnxNode* producerOf(const onnx::OnnxModel& model, int value_id);

/** Consumer nodes of an OnnxLite value. */
std::vector<const onnx::OnnxNode*>
consumersOf(const onnx::OnnxModel& model, int value_id);

/** Is the value a weight (constant) leaf? */
bool isWeight(const onnx::OnnxModel& model, int value_id);

/**
 * Execute the imported graph with the given leaves (keyed by OnnxLite
 * value ids) and return outputs in model.outputs order.
 */
std::vector<tensor::Tensor>
executeImported(const onnx::OnnxModel& model, const graph::Graph& graph,
                const std::unordered_map<int, int>& id_map,
                const exec::LeafValues& leaves);

/**
 * Deterministic semantic-defect output corruption: scales floats,
 * offsets ints, flips bools — always beyond difftest tolerance.
 */
void perturbOutputs(std::vector<tensor::Tensor>& outputs,
                    const std::string& defect_id);

} // namespace nnsmith::backends

#endif // NNSMITH_BACKENDS_BACKEND_H
