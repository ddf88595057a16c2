/**
 * @file
 * The campaign loop, internal to src/fuzz/: virtual clock, budget and
 * iteration-cap checks, series sampling, first-occurrence bug dedup
 * and the converged-plateau fast-forward. runCampaign drives it with
 * live iterations and mergeShardResults with replayed shard records,
 * so the serial and the sharded driver share one definition of what a
 * campaign accounts.
 */
#ifndef NNSMITH_FUZZ_CAMPAIGN_LOOP_H
#define NNSMITH_FUZZ_CAMPAIGN_LOOP_H

#include <functional>
#include <utility>

#include "fuzz/campaign.h"

namespace nnsmith::fuzz {

class CampaignLoop {
  public:
    /**
     * (all, pass-only) coverage counts at a sample point. runCampaign
     * reads the global hit bits, which Tzer's coverage feedback needs
     * set; the merge counts the maps it builds from shard records.
     */
    using CoverageCounts = std::function<std::pair<size_t, size_t>()>;

    /** Start the clock and take the minute-0 sample into @p result. */
    CampaignLoop(CampaignResult& result, const CampaignConfig& config,
                 CoverageCounts counts);

    /** Whether the virtual budget and the iteration cap admit another
     *  iteration. */
    bool admits() const;

    /**
     * Account one iteration — virtual cost, bugs (the first record of
     * a dedup key wins), defects, instance keys — then take every
     * sample the clock passed. The iteration's coverage must already
     * be visible to the counts callback.
     */
    void add(VirtualMs cost, bool produced, std::vector<BugRecord> bugs,
             std::vector<std::string> instance_keys);

    /** Fast-forward the converged plateau, take the final sample and
     *  stamp activeTime / virtualTime. */
    void finish();

  private:
    void sample();

    CampaignResult& result_;
    const CampaignConfig& config_;
    CoverageCounts counts_;
    VirtualClock clock_;
    double nextSample_ = 0.0;
};

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_CAMPAIGN_LOOP_H
