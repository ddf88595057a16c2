/**
 * @file
 * The pass-sequence fuzzer.
 *
 * Tzer (baselines/tzer.h) mutates TIR *programs* but always runs the
 * fixed default pipeline over them; this fuzzer makes the pipeline
 * itself the fuzzed dimension — for any backend with a named pass
 * registry:
 *
 * - **TVMLite** (the default): every iteration draws a random TIR
 *   program (optionally mutated a few steps) and a random pass
 *   *sequence* — subset and order — from the TIR registry
 *   (tirlite/tir_passes.h), then uses the TIR interpreter as a
 *   differential oracle: the optimized program must produce bitwise
 *   the same buffers as the unoptimized one.
 * - **OrtLite / TrtLite**: every iteration generates a random OnnxLite
 *   model and draws a sequence from the backend's graph-pass registry
 *   (backends/graph_pass.h); the oracle is the backend itself —
 *   run(kO0) vs runWithPasses(sequence) under the difftest
 *   comparator. Semantic defects that already fire at kO0 (import
 *   stage) perturb both runs identically and are subtracted out.
 *
 * Crash-symptom defects surface as crash bug records; semantic defects
 * and genuine sequence-induced miscompiles surface as wrong-result
 * records.
 *
 * Each oracle exists once, here (TirSequenceOracle,
 * GraphSequenceOracle): the fuzzer adds coverage bins, instance keys,
 * cost and the repro around a query, and the reducer, reproStillFires
 * and corpus replay re-check flagged bugs by querying the same oracle
 * (reduce/reducer.h).
 *
 * Unlike Tzer, the fuzzer keeps no corpus: each iterate() draws
 * everything from its own RNG stream, so a fresh instance per derived
 * seed is iteration-independent and qualifies for the sharded
 * parallel campaign runner (fuzz/parallel_campaign.h) — merged
 * results stay byte-identical for any shard count.
 */
#ifndef NNSMITH_FUZZ_PASS_FUZZER_H
#define NNSMITH_FUZZ_PASS_FUZZER_H

#include <functional>

#include "fuzz/fuzzer.h"
#include "tirlite/tir_passes.h"

namespace nnsmith::fuzz {

/** Fuzzes randomized pass sequences against a differential oracle. */
class PassSequenceFuzzer final : public Fuzzer {
  public:
    struct Options {
        /**
         * The registry to fuzz: "TVMLite" (TIR passes, interp oracle)
         * or a graph-pass backend ("OrtLite" | "TrtLite", whose
         * instance must be present in iterate()'s backend list).
         */
        std::string backend = "TVMLite";

        /** Virtual cost per case (TIR cases are cheap, like Tzer's). */
        VirtualMs caseCost = 500;

        /** Max mutate() steps applied on top of randomProgram. */
        int maxMutations = 3;

        /** Model generator knobs (graph-pass backends only). */
        gen::GeneratorConfig generator;

        /** Per-case compile+run cost (graph-pass backends only). */
        CostModel cost;
    };

    explicit PassSequenceFuzzer(uint64_t seed);
    PassSequenceFuzzer(uint64_t seed, Options options);

    std::string name() const override { return "PassFuzz"; }
    IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) override;

  private:
    IterationOutcome iterateTir();
    IterationOutcome
    iterateGraph(const std::vector<backends::Backend*>& backend_list);

    Options options_;
    Rng rng_;
};

/**
 * The bug records of one TIR pipeline run, laid out the way every TIR
 * flagger reports them. @p run compiles (and may execute) the program,
 * appending the semantic defects that fired; it returns whether the
 * optimized program's output differs from the reference. Runs inside
 * its own TraceScope. Records: the crash (a BackendError out of @p run,
 * its trigger trace as defects) or a genuine miscompile (@p run's
 * mismatch with no seeded defect explaining it), then one wrong-result
 * record per fired semantic defect. Shared by TirSequenceOracle and
 * Tzer (baselines/tzer.h), which runs the default pipeline.
 */
std::vector<BugRecord>
tirSequenceRecords(const std::vector<std::string>& sequence,
                   const std::function<bool(std::vector<std::string>&)>& run);

/**
 * The TIR pass-sequence oracle: the optimized program must produce
 * bitwise the same buffers as the unoptimized one. The reference
 * interpretation of the program on @p initial is computed once; each
 * query runs one sequence. With empty @p initial (Tzer's repros) the
 * optimized program is not executed, so only crashes and seeded
 * semantic defects flag.
 */
class TirSequenceOracle {
  public:
    TirSequenceOracle(const tirlite::TirProgram& program,
                      tirlite::Buffers initial);

    /** The records the fuzzer flags for @p sequence (no repro). */
    std::vector<BugRecord>
    query(const std::vector<std::string>& sequence) const;

  private:
    const tirlite::TirProgram& program_;
    tirlite::Buffers initial_;
    tirlite::Buffers reference_;
};

/**
 * The graph-pass sequence oracle of one backend: run(kO0) vs
 * runWithPasses(sequence) under the difftest comparator, import-stage
 * semantic firings subtracted. The export and the kO0 reference run
 * happen once; each query is one runWithPasses. An export crash or an
 * import-stage crash at kO0 *masks* the pass stage: queries then
 * return no records.
 */
class GraphSequenceOracle {
  public:
    /** Query @p backend, which must outlive the oracle (as must
     *  @p graph's leaves). */
    GraphSequenceOracle(backends::Backend& backend,
                        const graph::Graph& graph,
                        const exec::LeafValues& leaves);

    /** Query a fresh instance of the named graph-pass backend
     *  ("OrtLite" | "TrtLite"), as replay and reduction do. */
    GraphSequenceOracle(const std::string& backend,
                        const graph::Graph& graph,
                        const exec::LeafValues& leaves);

    /** Did the model export? (An export crash masks the pass stage.) */
    bool exported() const { return exported_; }

    /** Fingerprint of the export or import-stage crash masking the
     *  pass stage ("Exporter|crash|<kind>" or "<backend>|crash|<kind>");
     *  empty when the pass stage is reachable. */
    const std::string& masked() const { return masked_; }

    /** The records the fuzzer flags for @p sequence (no repro). A crash
     *  record's defects are the whole case's trigger trace: export,
     *  kO0 run and sequence run. */
    std::vector<BugRecord>
    query(const std::vector<std::string>& sequence) const;

  private:
    void prepare(const graph::Graph& graph);

    std::unique_ptr<backends::Backend> owned_;
    backends::Backend& backend_;
    const exec::LeafValues& leaves_;
    onnx::OnnxModel model_;
    backends::RunResult reference_;
    std::vector<std::string> fixedTrace_; ///< export + kO0 triggers
    bool exported_ = false;
    std::string masked_;
};

/**
 * The fuzzer's TIR case: record @p sequence's coverage bins, draw
 * initial buffers from @p rng and query the TirSequenceOracle.
 * Flagged records carry a SeqRepro. Shared by PassSequenceFuzzer and
 * the corpus-guided mutator (fuzz/mutator.h).
 */
IterationOutcome runTirSequenceCase(const tirlite::TirProgram& program,
                                    const std::vector<std::string>& sequence,
                                    VirtualMs case_cost, Rng& rng);

/**
 * The fuzzer's graph-pass case: record @p sequence's coverage bins and
 * query @p backend's GraphSequenceOracle; a masked case flags nothing.
 * Flagged records carry a GraphSeqRepro. The returned cost covers the
 * two compiles + two runs only (none when the export crashed); the
 * caller adds its generation (or mutation) cost.
 */
IterationOutcome runGraphSequenceCase(backends::Backend& backend,
                                      const graph::Graph& graph,
                                      const exec::LeafValues& leaves,
                                      const std::vector<std::string>& sequence,
                                      const CostModel& cost);

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_PASS_FUZZER_H
