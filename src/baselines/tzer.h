/**
 * @file
 * Tzer-lite baseline (§5.2, Fig. 8): a coverage-guided mutation fuzzer
 * over *low-level* TIRLite programs. It exercises TVMLite's TIR passes
 * directly — including expression shapes no graph lowering produces
 * (its unique branches in Fig. 8a) — but never touches graph-level
 * import or transformation passes (hence Fig. 8b).
 */
#ifndef NNSMITH_BASELINES_TZER_H
#define NNSMITH_BASELINES_TZER_H

#include <atomic>
#include <thread>

#include "coverage/coverage.h"
#include "fuzz/parallel_campaign.h"
#include "tirlite/tir.h"

namespace nnsmith::baselines {

/** See file comment. Coverage feedback is the fuzzer's own
 *  `tvmlite/pass` set, fed from the thread's active CoverageCollector
 *  (a campaign worker's); with none active the corpus never grows. */
class TzerFuzzer final : public fuzz::Fuzzer {
  public:
    explicit TzerFuzzer(uint64_t seed,
                        fuzz::CostModel cost = fuzz::CostModel());

    std::string name() const override { return "Tzer"; }

    /** The next iteration, from deriveIterationSeed(seed, index). */
    fuzz::IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) override;

    /**
     * Run the next iteration from @p iteration_seed, which must be the
     * seed the plain iterate() would draw, on the thread that ran the
     * first iteration; throws FatalError otherwise.
     */
    fuzz::IterationOutcome
    iterate(uint64_t iteration_seed,
            const std::vector<backends::Backend*>& backend_list);

    size_t corpusSize() const { return corpus_.size(); }

  private:
    uint64_t seed_;
    uint64_t iteration_ = 0; ///< keys each iterate()'s private RNG
    fuzz::CostModel cost_;
    std::vector<tirlite::TirProgram> corpus_;
    coverage::CoverageMap passCoverage_; ///< tvmlite/pass hits so far
    size_t lastCoverage_ = 0;
    std::atomic<std::thread::id> driver_; ///< thread of iteration 0
};

/**
 * Fuzzer factory for a Tzer campaign on the fabric
 * (fuzz/parallel_campaign.h) with masterSeed == @p seed. Every fuzzer
 * it builds forwards to one shared TzerFuzzer, so the mutation corpus
 * carries across iterations; that fuzzer throws on the first
 * iteration out of global order or from a second thread. Run it at
 * shards = 1 with one factory per campaign: two shards, or a respawned
 * process worker, fail instead of silently diverging.
 */
fuzz::FuzzerFactory tzerFactory(uint64_t seed);

} // namespace nnsmith::baselines

#endif // NNSMITH_BASELINES_TZER_H
