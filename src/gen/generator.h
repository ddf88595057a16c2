/**
 * @file
 * NNSmith's model generator (paper §3.2, Algorithm 1).
 *
 * Starting from a single placeholder, the generator repeatedly inserts
 * a randomly chosen operator either *forward* (consuming existing
 * values, creating fresh weight/input placeholders for unfilled slots)
 * or *backward* (becoming the producer of an existing placeholder).
 * Each insertion is accepted only if the accumulated constraint system
 * stays satisfiable (incremental solving). Attribute binning
 * (Algorithm 2) then diversifies the solver's model before
 * concretization.
 */
#ifndef NNSMITH_GEN_GENERATOR_H
#define NNSMITH_GEN_GENERATOR_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "ops/registry.h"
#include "solver/solver.h"
#include "support/rng.h"

namespace nnsmith::gen {

/** Knobs of the generator. */
struct GeneratorConfig {
    /** Number of operator nodes to aim for (paper default: 10). */
    int targetOpNodes = 10;

    /** Probability of forward (vs backward) insertion (paper: 0.5). */
    double forwardProb = 0.5;

    /** Attribute binning on/off and bin count k (paper: k = 7). */
    bool enableBinning = true;
    int binningK = 7;

    /** Which solver backend to use. */
    solver::SolverKind solverKind = solver::SolverKind::kAuto;

    /** Restrict generation to these operators (empty = all). */
    std::vector<std::string> opAllowlist;

    /**
     * Multiplies every per-rank dimension cap (rank > 0). 1 keeps the
     * paper-scale models; larger values open heavy-tensor workloads
     * that stress the execution path (bench/bench_kernels.cpp).
     */
    int64_t dimCapScale = 1;

    /**
     * Lower bound on every free dimension (clamped to the per-rank
     * cap). The default 1 reproduces the paper-scale models; raising
     * it pins generated tensors to a heavy-tensor regime. Note that
     * raising it also makes broadcast-mask constraints demanding a
     * dim == 1 unsatisfiable, so such insertions are skipped.
     */
    int64_t dimFloor = 1;

    /** Per-rank dimension caps keeping kernels tractable. */
    int64_t dimCapForRank(int rank) const;
};

/** A fully generated, concrete, valid test-case model. */
struct GeneratedModel {
    graph::Graph graph;             ///< concrete executable graph
    symbolic::Assignment solution;  ///< the SMT model used
    int solverQueries = 0;
    int rejectedInsertions = 0;

    /** gen::instanceKeys(graph). */
    std::vector<std::string> instanceKeys() const;
};

/**
 * Instance keys for Fig. 9 diversity stats, one per live operator node
 * in node order: "<op>|<in types>|<attrs>". An instance is an
 * operator's input types plus its attributes; every graph-producing
 * fuzzer keys its cases with this one rule.
 */
std::vector<std::string> instanceKeys(const graph::Graph& graph);

/** See file comment. */
class GraphGenerator {
  public:
    GraphGenerator(GeneratorConfig config, uint64_t seed);

    /**
     * Generate one model; nullopt if the attempt budget was exhausted
     * (rare — retried by callers).
     */
    std::optional<GeneratedModel> generate();

    /** Ops eligible under the config's allowlist. */
    const std::vector<const ops::OpMeta*>& candidateOps() const
    { return candidates_; }

  private:
    struct Session; // per-generate() mutable state

    bool tryInsert(Session& session, const ops::OpMeta& meta);
    bool forwardInsert(Session& session, const ops::OpMeta& meta);
    bool backwardInsert(Session& session, const ops::OpMeta& meta);

    /** Fresh placeholder type of @p rank and @p dtype with dim caps. */
    tensor::TensorType
    makePlaceholderType(Session& session, tensor::DType dtype, int rank,
                        std::vector<symbolic::Pred>& pending);

    GeneratorConfig config_;
    Rng rng_;
    std::vector<const ops::OpMeta*> candidates_;
};

/** Output-dim sanity constraints: 1 <= dim <= cap(rank). */
std::vector<symbolic::Pred>
dimBoundsFor(const tensor::TensorType& type, const GeneratorConfig& config);

} // namespace nnsmith::gen

#endif // NNSMITH_GEN_GENERATOR_H
