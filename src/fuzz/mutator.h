/**
 * @file
 * Corpus-guided mutation — the feedback loop the ROADMAP calls
 * "close the feedback loop" (the Tzer idiom promoted to a first-class
 * campaign mode for the whole system).
 *
 * A campaign that replays a regression corpus (`--corpus DIR`) already
 * knows which graphs and pass sequences were productive: every repro
 * in the corpus flagged a real defect, and its pass sequence populated
 * the `<backend>/pass/seq` bins. With `--corpus-guided`
 * (CampaignConfig::corpusGuided) those entries become mutation seeds:
 * each campaign iteration chooses — seeded off nothing but its own
 * derived iteration seed — between drawing a fresh case from the
 * wrapped fuzzer and mutating a corpus entry.
 *
 * Mutation operators:
 *
 *  - **Graph** (graph repros): operator insert / delete / swap through
 *    the same `OpRegistry` reconstruct machinery the corpus parser
 *    uses, dtype flips and leaf-shape perturbation with full
 *    type-transfer repropagation, and leaf-value perturbation (the
 *    %.17g-precision buffers). Every structural operator rebuilds the
 *    graph through fuzz::rebuildGraph (fuzz/fuzzer.h, the rebuild the
 *    reducer's candidate subgraphs also go through) with
 *    producer-closure preserved and re-checks `graph::validate`; a
 *    candidate that fails validation falls back deterministically to
 *    leaf-value perturbation, so **every mutant is valid by
 *    construction**.
 *  - **Sequence** (TIR and graph-pass repros): splice / truncate /
 *    reorder of the recorded high-yield pass sequence
 *    (backends::mutatePassSequence), drawing replacement passes only
 *    from the owning backend's registry, so every mutant sequence
 *    re-validates against that registry.
 *
 * Shard invariance: the pool is immutable after load (one parse of the
 * corpus dir, in index order, before any worker starts — so it
 * pre-exists process workers' fork()), and a CorpusGuidedFuzzer built
 * from iteration seed s consumes only its own Rng(s). No shared
 * mutable state exists, so the byte-identical merge guarantee of
 * fuzz/parallel_campaign.h holds across {thread, process} × any shard
 * count, `--minimize --corpus` included.
 */
#ifndef NNSMITH_FUZZ_MUTATOR_H
#define NNSMITH_FUZZ_MUTATOR_H

#include <memory>

#include "fuzz/fuzzer.h"
#include "tirlite/tir.h"

namespace nnsmith::fuzz {

/** A TIR pass-sequence mutation seed (TVMLite repros). */
struct TirSeqSeedCase {
    tirlite::TirProgram program;
    std::vector<std::string> sequence;
};

/** A graph-level pass-sequence mutation seed (OrtLite/TrtLite). */
struct GraphSeqSeedCase {
    std::string backend; ///< owning registry ("OrtLite" | "TrtLite")
    graph::Graph graph;
    exec::LeafValues leaves;
    std::vector<std::string> sequence;
};

/**
 * The immutable seed pool a corpus-guided campaign mutates. Loaded
 * once per campaign from a `--report-dir` corpus tree; entries keep
 * index.tsv order so the pool — like the corpus — is byte-stable.
 */
class MutationPool {
  public:
    /**
     * Parse every index entry of @p dir into a seed. Repros that fail
     * to parse are skipped (replay already classifies them as
     * parse-error); a missing or malformed index.tsv throws
     * corpus::ParseError like corpus::loadCorpusIndex.
     */
    static MutationPool fromCorpusDir(const std::string& dir);

    /** File a parsed bug record under the matching seed kind. Records
     *  without repro material are ignored. */
    void addBug(const BugRecord& bug);

    bool empty() const
    {
        return graphs_.empty() && tirSeqs_.empty() && graphSeqs_.empty();
    }
    size_t size() const
    {
        return graphs_.size() + tirSeqs_.size() + graphSeqs_.size();
    }

    const std::vector<GraphRepro>& graphSeeds() const { return graphs_; }
    const std::vector<TirSeqSeedCase>& tirSeqSeeds() const
    {
        return tirSeqs_;
    }
    const std::vector<GraphSeqSeedCase>& graphSeqSeeds() const
    {
        return graphSeqs_;
    }

  private:
    std::vector<GraphRepro> graphs_;
    std::vector<TirSeqSeedCase> tirSeqs_;
    std::vector<GraphSeqSeedCase> graphSeqs_;
};

/**
 * Mutate a graph case. Picks one operator (insert/delete/swap/
 * dtype-flip/shape-perturb/value-perturb) from @p rng; structural
 * candidates that fail `graph::validate` fall back to leaf-value
 * perturbation, so the result always validates when @p seed does.
 * The mutant graph is rebuilt densely in topological order, so
 * minimized (canonical) seeds yield canonical mutants whose repros
 * round-trip byte-identically.
 */
GraphRepro mutateGraphCase(const GraphRepro& seed, Rng& rng);

/**
 * The corpus-guided campaign fuzzer: wraps the campaign's fresh-case
 * fuzzer and, per iterate(), either delegates to it or mutates a pool
 * entry and runs the mutant through the same oracle that flagged the
 * seed (difftest trio for graphs, TIR-interp differential for TIR
 * sequences, run(kO0)-vs-runWithPasses for graph-pass sequences).
 *
 * All randomness comes from the constructor seed, so a fresh instance
 * per derived iteration seed is iteration-independent and qualifies
 * for the sharded runner. Graph-pass seeds whose owning backend is
 * absent from iterate()'s backend list are excluded from the draw
 * (deterministically — the backend list is fixed per campaign).
 */
class CorpusGuidedFuzzer final : public Fuzzer {
  public:
    struct Options {
        /** Chance an iteration mutates a pool entry instead of drawing
         *  fresh (given a nonempty applicable pool). */
        double mutationRate = 0.2;

        /** Mutants per mutating iteration. Corpus repros are minimized
         *  — a single tiny mutant covers far less than the 10-op fresh
         *  draw it displaces — so a mutating iteration runs a burst of
         *  independently drawn mutants (costed individually; virtual
         *  time accounts for the extra work). */
        int mutationBurst = 3;

        /** Cost model for mutant execution (mutation replaces the
         *  constraint-solving generation cost with a cheap rebuild). */
        CostModel cost;
    };

    CorpusGuidedFuzzer(std::unique_ptr<Fuzzer> inner,
                       std::shared_ptr<const MutationPool> pool,
                       uint64_t seed);
    CorpusGuidedFuzzer(std::unique_ptr<Fuzzer> inner,
                       std::shared_ptr<const MutationPool> pool,
                       uint64_t seed, Options options);

    /** "<inner>+corpus" — bench output distinguishes guided runs. */
    std::string name() const override { return inner_->name() + "+corpus"; }

    IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) override;

  private:
    IterationOutcome
    runGraphMutant(const GraphRepro& seed,
                   const std::vector<backends::Backend*>& backend_list);
    IterationOutcome runTirSeqMutant(const TirSeqSeedCase& seed);
    IterationOutcome
    runGraphSeqMutant(const GraphSeqSeedCase& seed,
                      const std::vector<backends::Backend*>& backend_list);

    std::unique_ptr<Fuzzer> inner_;
    std::shared_ptr<const MutationPool> pool_;
    Options options_;
    Rng rng_;
};

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_MUTATOR_H
