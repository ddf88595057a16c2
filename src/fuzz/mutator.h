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
 * wrapped fuzzer and mutating a corpus entry. A seed is the parsed bug
 * record itself; its fuzz::Repro kind selects the operators below.
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
 * corpus dir, kind-major and in index order within a kind, before any
 * worker starts — so it pre-exists process workers' fork()), and a
 * CorpusGuidedFuzzer built from iteration seed s consumes only its own
 * Rng(s). No shared mutable state exists, so the byte-identical merge
 * guarantee of fuzz/parallel_campaign.h holds across {thread, process}
 * × any shard count, `--minimize --corpus` included.
 */
#ifndef NNSMITH_FUZZ_MUTATOR_H
#define NNSMITH_FUZZ_MUTATOR_H

#include <memory>

#include "fuzz/fuzzer.h"

namespace nnsmith::fuzz {

/**
 * The immutable seed pool a corpus-guided campaign mutates: the parsed
 * records of a `--report-dir` corpus tree, loaded once per campaign.
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

    /**
     * The seeds, kind-major in fuzz::Repro's alternative order (graph
     * cases, then TIR sequences, then graph-pass sequences), each kind
     * in index.tsv order, so the pool — like the corpus — is
     * byte-stable. Every seed carries a repro; a graph-pass seed's
     * `backend` names its owning pass registry.
     */
    const std::vector<BugRecord>& seeds() const { return seeds_; }

  private:
    std::vector<BugRecord> seeds_;
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
    IterationOutcome runTirSeqMutant(const SeqRepro& seed);
    IterationOutcome runGraphSeqMutant(const GraphSeqRepro& seed,
                                       backends::Backend& backend);

    std::unique_ptr<Fuzzer> inner_;
    std::shared_ptr<const MutationPool> pool_;
    Options options_;
    Rng rng_;
};

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_MUTATOR_H
