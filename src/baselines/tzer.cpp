#include "baselines/tzer.h"

#include <algorithm>

#include "backends/graph_pass.h"
#include "fuzz/pass_fuzzer.h"
#include "support/logging.h"
#include "tirlite/tir_interp.h"
#include "tirlite/tir_passes.h"

namespace nnsmith::baselines {

using coverage::CoverageRegistry;

namespace {

/** One fabric iteration's handle on the campaign's shared Tzer. */
class TzerHandle final : public fuzz::Fuzzer {
  public:
    TzerHandle(std::shared_ptr<TzerFuzzer> tzer, uint64_t seed)
        : tzer_(std::move(tzer)), seed_(seed)
    {
    }
    std::string name() const override { return tzer_->name(); }
    fuzz::IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) override
    {
        return tzer_->iterate(seed_, backend_list);
    }

  private:
    std::shared_ptr<TzerFuzzer> tzer_;
    uint64_t seed_;
};

} // namespace

fuzz::FuzzerFactory
tzerFactory(uint64_t seed)
{
    auto tzer = std::make_shared<TzerFuzzer>(seed);
    return [tzer](uint64_t iteration_seed) {
        return std::make_unique<TzerHandle>(tzer, iteration_seed);
    };
}

TzerFuzzer::TzerFuzzer(uint64_t seed, fuzz::CostModel cost)
    : seed_(seed), cost_(cost)
{
}

fuzz::IterationOutcome
TzerFuzzer::iterate(const std::vector<backends::Backend*>& backend_list)
{
    return iterate(fuzz::deriveIterationSeed(seed_, iteration_),
                   backend_list);
}

fuzz::IterationOutcome
TzerFuzzer::iterate(uint64_t iteration_seed,
                    const std::vector<backends::Backend*>&)
{
    // The corpus makes iteration i depend on iterations 0..i-1: a
    // second shard or a respawned process worker skips some of them.
    // The first thread to iterate owns the fuzzer; sibling thread
    // shards fail here before they can race on the corpus (or take
    // turns in global order by luck).
    std::thread::id driver;
    if (!driver_.compare_exchange_strong(driver,
                                         std::this_thread::get_id()) &&
        driver != std::this_thread::get_id())
        fatal("Tzer: a second worker thread iterated it; Tzer runs only "
              "as one in-order shard");
    if (iteration_seed != fuzz::deriveIterationSeed(seed_, iteration_))
        fatal("Tzer: iteration " + std::to_string(iteration_) +
              " got another iteration's seed; Tzer runs only as one "
              "in-order shard");
    ++iteration_;
    fuzz::IterationOutcome outcome;
    outcome.produced = true;
    outcome.cost = fuzz::kTirCaseCost;

    // Tzer links the whole compiler (runtime plumbing gets covered)
    // but never runs the graph frontend (Fig. 8: most of its coverage
    // is shared; its exclusive region is low-level only).
    backends::hitTvmSharedInfra(0.72);
    // Direct TIR construction exercises low-level driver APIs that
    // graph-level compilation never touches — Tzer's exclusive region
    // in Fig. 8a ("some low-level operations are not exposed at the
    // graph level").
    coverage::CoverageRegistry::instance().hitRange(
        "tvmlite/lowlevel_api", 430, 1.0);

    // Pick a seed from the corpus (coverage-guided) or start fresh.
    // All draws come from a per-iteration RNG keyed off (constructor
    // seed, iteration index), and the fresh-vs-mutate coin is tossed
    // *before* consulting the corpus: a fresh iteration's program is
    // identical no matter how corpus growth diverged earlier, instead
    // of the pick perturbing every later draw of the shared stream.
    Rng it_rng(iteration_seed);
    const bool fresh = it_rng.chance(0.2);
    tirlite::TirProgram program =
        fresh || corpus_.empty()
            ? tirlite::randomProgram(it_rng)
            : tirlite::mutate(corpus_[it_rng.index(corpus_.size())],
                              it_rng);

    const auto& pipeline = backends::defaultPipeline("TVMLite");
    outcome.bugs = fuzz::tirSequenceRecords(
        pipeline, [&](std::vector<std::string>& fired_semantic) {
            const auto optimized =
                tirlite::runTirPasses(program, pipeline, fired_semantic);
            auto buffers = tirlite::makeBuffers(optimized, it_rng);
            tirlite::run(optimized, buffers);
            return false; // no reference run: crashes and seeded
                          // semantic defects only
        });
    const bool crashed =
        std::any_of(outcome.bugs.begin(), outcome.bugs.end(),
                    [](const fuzz::BugRecord& bug) {
                        return bug.kind == "crash";
                    });
    if (!outcome.bugs.empty()) {
        // Tzer always runs the fixed default pipeline; the reducer can
        // still ddmin that pipeline to the minimal failing subsequence.
        const auto repro = std::make_shared<const fuzz::Repro>(
            fuzz::SeqRepro{program, pipeline, {}});
        for (auto& bug : outcome.bugs)
            bug.repro = repro;
    }

    // Coverage feedback: keep inputs that grew the TIR branch set. The
    // active collector holds exactly this iteration's hits (the worker
    // takes them after every iteration).
    passCoverage_ = passCoverage_.unionWith(
        CoverageRegistry::instance().filterIds(
            coverage::CoverageCollector::activeHits(), "tvmlite/pass",
            /*pass_only=*/false));
    const size_t now = passCoverage_.count();
    if (now > lastCoverage_ && !crashed && corpus_.size() < 256) {
        corpus_.push_back(std::move(program));
        lastCoverage_ = now;
    }
    return outcome;
}

} // namespace nnsmith::baselines
