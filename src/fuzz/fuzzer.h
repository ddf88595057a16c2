/**
 * @file
 * The fuzzer interface and the NNSmith fuzzer itself.
 *
 * A fuzzer produces and executes one test case per iterate() call,
 * reporting its virtual cost (see support/vclock.h and DESIGN.md —
 * wall-clock campaign dynamics are replayed in virtual time) plus any
 * bug signals. Baselines (LEMON / GraphFuzzer / Tzer) implement the
 * same interface in baselines/.
 */
#ifndef NNSMITH_FUZZ_FUZZER_H
#define NNSMITH_FUZZ_FUZZER_H

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "autodiff/grad_search.h"
#include "difftest/oracle.h"
#include "gen/generator.h"
#include "support/rng.h"
#include "support/vclock.h"
#include "tirlite/tir_interp.h"

namespace nnsmith::fuzz {

/**
 * A graph-level test case: a concrete model plus its leaf tensors.
 * Attached to every bug record by executeGraphCase as the repro
 * material of the flagged case, so the reduction subsystem
 * (reduce/reducer.h) can delta-debug it after the fact (shared and
 * immutable there, because one flagged iteration may emit several
 * records); also the seed and mutant type of corpus-guided mutation
 * (fuzz/mutator.h).
 */
struct GraphRepro {
    graph::Graph graph;
    exec::LeafValues leaves;
};

/** Edits applied by rebuildGraph; an empty spec edits nothing. */
struct RebuildSpec {
    /** Op node id -> replacement operator (output types re-derived). */
    std::map<int, std::shared_ptr<ops::OpBase>> replaceOps;
    /** Leaf node id -> its new binding; the leaf takes the binding's
     *  dtype and shape. */
    std::map<int, tensor::Tensor> leafValues;
    /** Re-derive every kept op's output types through typeTransfer
     *  (needed when a leafValues retype ripples downstream). */
    bool repropagateTypes = false;
};

/**
 * Rebuild the subgraph of @p graph made of @p keep_ops (a
 * producer-closed op-node set) plus the leaves they read, applying
 * @p spec. Nodes are added densely in topological order, so value ids
 * are renumbered into the canonical form the corpus round-trip
 * requires. Leaf bindings are carried by value; unedited ops are
 * shared with @p graph (immutable once concrete). Returns nullopt when
 * an edit cannot type (no dtype combo of an op matches its new input
 * dtypes, or a derived dim does not fold to a constant) or no op is
 * kept. The reducer's candidate subgraphs and the mutator's mutants
 * are both built here.
 */
std::optional<GraphRepro>
rebuildGraph(const graph::Graph& graph, const exec::LeafValues& leaves,
             const std::set<int>& keep_ops, const RebuildSpec& spec = {});

/** rebuildGraph keeping every op of @p graph. */
std::optional<GraphRepro>
rebuildGraph(const graph::Graph& graph, const exec::LeafValues& leaves,
             const RebuildSpec& spec = {});

/**
 * Repro material of a flagged TIR pass-sequence case: the program, the
 * pass sequence that was run over it, and (when the flagging oracle
 * was the differential interpreter) the initial buffer contents.
 */
struct SeqRepro {
    tirlite::TirProgram program;
    std::vector<std::string> sequence;
    tirlite::Buffers initial; ///< empty when the oracle needed none
};

/**
 * Repro material of a flagged *graph-level* pass-sequence case
 * (backends/graph_pass.h): the model, its leaf tensors, and the
 * OrtLite/TrtLite pass sequence that was run over it. The replaying
 * oracle is the backend itself: run(kO0) vs runWithPasses(sequence)
 * (GraphSequenceOracle, fuzz/pass_fuzzer.h).
 */
struct GraphSeqRepro {
    graph::Graph graph;
    exec::LeafValues leaves;
    std::vector<std::string> sequence;
};

/**
 * The repro material of one flagged case, in one of three kinds: a
 * graph case, a TIR pass sequence, or a graph-level pass sequence.
 * Every consumer (renderer, parser, oracle re-run, reducer, mutation
 * pool) switches on the alternative once; the alternative order is
 * the mutation pool's kind order (fuzz/mutator.h).
 */
using Repro = std::variant<GraphRepro, SeqRepro, GraphSeqRepro>;

/**
 * One deduplicable bug observation. A flagged case's records share
 * one immutable repro (one case may emit several records), which the
 * reducer keys its per-case cache on; repro-less fuzzers leave it
 * null.
 */
struct BugRecord {
    std::string dedupKey; ///< e.g. "TVMLite|crash|tvm.layout.nchw4c_slice"
    std::string backend;
    std::string kind;     ///< "crash" | "wrong-result" | "export-crash"
    std::string detail;
    std::vector<std::string> defects; ///< seeded defects in the trace

    std::shared_ptr<const Repro> repro;

    /** Filled by reduce::minimizeBugs: size is op nodes for graph
     *  repros, passes for sequence repros. `defects` keeps the
     *  discovery-time trace (found/seeded accounting); the minimized
     *  repro's own trace lands in `minimizedDefects`. */
    bool minimized = false;
    size_t originalSize = 0;
    size_t minimizedSize = 0;
    std::vector<std::string> minimizedDefects;
};

/** Result of one fuzzer iteration. */
struct IterationOutcome {
    VirtualMs cost = 0;     ///< virtual milliseconds consumed
    bool produced = false;  ///< a test case was generated & executed
    std::vector<BugRecord> bugs;
    std::vector<std::string> instanceKeys; ///< Fig. 9 diversity keys
};

/** A test-case generator + executor. */
class Fuzzer {
  public:
    virtual ~Fuzzer() = default;
    virtual std::string name() const = 0;

    /** Produce and execute one test case against @p backends. */
    virtual IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) = 0;
};

/** Translate a differential-test result into bug records. */
std::vector<BugRecord> bugsFromCase(const difftest::CaseResult& result);

/**
 * Virtual cost model constants (DESIGN.md "Substitutions").
 *
 * Values are calibrated at *testbed scale*: they preserve the paper's
 * cost ratios (generation ~83ms/10-node model before the testbed's
 * compile+run dominates; TVM compiles slower than ONNXRuntime; LEMON
 * pays two orders of magnitude extra for running real models) so that
 * a 240-virtual-minute campaign performs a paper-plausible number of
 * iterations per fuzzer.
 */
struct CostModel {
    VirtualMs generationPerOp = 180; ///< solving dominates generation
    VirtualMs valueSearch = 90;
    VirtualMs backendCompileOrt = 1400;
    VirtualMs backendCompileTvm = 5600; ///< codegen makes TVM slower
    VirtualMs backendCompileTrt = 2800;
    VirtualMs run = 220;

    /** The backendCompile* cost of the backend called @p backend
     *  ("OrtLite" | "TVMLite" | "TrtLite"); panics on any other name. */
    VirtualMs backendCompile(const std::string& backend) const;
};

/** The NNSmith fuzzer (generator + binning + gradient value search +
 *  differential testing). */
class NNSmithFuzzer final : public Fuzzer {
  public:
    struct Options {
        gen::GeneratorConfig generator;
        autodiff::SearchConfig search;
        CostModel cost;
        bool runValueSearch = true;
        /**
         * Fuzz cases per iteration: one generated graph executed on
         * `batch` independent input sets ("lanes"). Lane 0 keeps the
         * exact sequential input path (value search or random leaves);
         * extra lanes draw additional random leaves. Default 1 = off.
         * Batching amortizes generation/solving cost across lanes —
         * that is the virtual-time speedup — while per-lane outcomes
         * stay bit-identical to running each lane as its own case.
         */
        size_t batch = 1;
        /**
         * When batch > 1, judge all lanes with one export of the graph
         * (difftest::runCaseBatch) instead of one export per lane.
         * Every lane runs the same per-case reference interpreter
         * either way, and outcomes are bit-identical (bench_identity
         * gates this); off exists only as the identity-check baseline.
         */
        bool batchSweep = true;
    };

    NNSmithFuzzer(Options options, uint64_t seed);

    std::string name() const override { return "NNSmith"; }
    IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) override;

    /** Total models generated so far (diagnostics). */
    size_t generated() const { return generated_; }

  private:
    Options options_;
    Rng rng_;
    uint64_t next_seed_;
    size_t generated_ = 0;
};

/** Shared helper for graph-producing fuzzers: run the differential
 *  test and fill an outcome. */
IterationOutcome
executeGraphCase(const graph::Graph& graph, const exec::LeafValues& leaves,
                 const std::vector<backends::Backend*>& backend_list,
                 const CostModel& cost);

/**
 * Batched variant: one graph, `lanes.size()` independent input sets in
 * one outcome. Bug records, repros and virtual cost are accounted per
 * lane exactly as `lanes.size()` sequential executeGraphCase calls
 * would produce them (in lane order). @p sweep exports the graph once
 * for all lanes (difftest::runCaseBatch) instead of once per lane
 * (per-lane runCase); the outcome is bit-identical either way.
 */
IterationOutcome
executeGraphCaseBatch(const graph::Graph& graph,
                      const std::vector<exec::LeafValues>& lanes,
                      const std::vector<backends::Backend*>& backend_list,
                      const CostModel& cost, bool sweep);

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_FUZZER_H
