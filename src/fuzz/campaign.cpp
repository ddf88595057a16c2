#include "fuzz/campaign.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "backends/defects.h"
#include "fuzz/campaign_loop.h"
#include "fuzz/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reduce/reducer.h"
#include "reduce/report.h"
#include "support/logging.h"

namespace nnsmith::fuzz {

using coverage::CoverageRegistry;

CampaignLoop::CampaignLoop(CampaignResult& result,
                           const CampaignConfig& config,
                           CoverageCounts counts)
    : result_(result), config_(config), counts_(std::move(counts))
{
    sample();
    nextSample_ = config_.sampleEveryMinutes;
}

void
CampaignLoop::sample()
{
    CampaignPoint point;
    point.minutes = clock_.minutes();
    point.iterations = result_.iterations;
    std::tie(point.coverageAll, point.coveragePass) = counts_();
    result_.series.push_back(point);
}

bool
CampaignLoop::admits() const
{
    return clock_.now() < config_.virtualBudget &&
           result_.iterations < config_.maxIterations;
}

void
CampaignLoop::add(VirtualMs cost, bool produced,
                  std::vector<BugRecord> bugs,
                  std::vector<std::string> instance_keys)
{
    ++result_.iterations;
    result_.produced += produced ? 1 : 0;
    clock_.advance(std::max<VirtualMs>(cost, 1));
    for (auto& bug : bugs) {
        for (const auto& defect : bug.defects)
            result_.defectsFound.insert(defect);
        result_.bugs.emplace(bug.dedupKey, std::move(bug));
    }
    for (auto& key : instance_keys)
        result_.instanceKeys.insert(std::move(key));
    while (clock_.minutes() >= nextSample_) {
        sample();
        // Re-stamp the sample at its nominal bucket boundary so
        // different fuzzers' series align on the x axis.
        result_.series.back().minutes = nextSample_;
        nextSample_ += config_.sampleEveryMinutes;
    }
}

void
CampaignLoop::finish()
{
    result_.activeTime = clock_.now();
    // If the real-iteration cap was hit before the virtual budget,
    // fast-forward the converged plateau: coverage cannot grow without
    // new test cases, so the remaining samples hold the final value
    // (the paper notes curves "generally converge before" 4 hours).
    // Bounded so iteration-capped campaigns with huge budgets stay
    // cheap.
    while (clock_.now() < config_.virtualBudget &&
           result_.series.size() < 4096) {
        clock_.advance(
            static_cast<VirtualMs>(config_.sampleEveryMinutes) * 60 * 1000);
        sample();
        result_.series.back().minutes = nextSample_;
        nextSample_ += config_.sampleEveryMinutes;
    }
    sample();
    result_.virtualTime = clock_.now();
}

CampaignResult
runCampaign(Fuzzer& fuzzer,
            const std::vector<backends::Backend*>& backends,
            const CampaignConfig& config)
{
    if (config.corpusGuided)
        fatal("runCampaign: corpusGuided needs runParallelCampaign; "
              "wrap the fuzzer in a CorpusGuidedFuzzer instead");
    auto& registry = CoverageRegistry::instance();
    registry.resetHits();

    CampaignResult result;
    result.fuzzer = fuzzer.name();
    if (!config.corpusDir.empty()) {
        // Re-check every known bug before fresh fuzzing. The scratch
        // collector keeps replay's oracle runs out of the global hit
        // bits, so --corpus cannot perturb campaign coverage.
        obs::PhaseSpan span("replay");
        coverage::CoverageCollector scratch;
        try {
            result.regressions =
                corpus::replayCorpus(config.corpusDir, backends);
        } catch (const corpus::ParseError& error) {
            // A missing or malformed index is a configuration error
            // (mistyped --corpus), not an internal failure.
            fatal(std::string("runCampaign corpusDir: ") + error.what());
        }
        corpus::writeRegressions(config.corpusDir, result.regressions);
    }

    CampaignLoop loop(result, config, [&] {
        return std::make_pair(
            registry.snapshot(config.coverageComponent).count(),
            registry.snapshotPassOnly(config.coverageComponent).count());
    });
    while (loop.admits()) {
        IterationOutcome outcome = fuzzer.iterate(backends);
        obs::counterAdd("campaign.iterations");
        if (outcome.produced)
            obs::counterAdd("campaign.produced");
        if (!outcome.bugs.empty())
            obs::counterAdd("campaign.bugs.flagged", outcome.bugs.size());
        if (config.minimize && !outcome.bugs.empty()) {
            // Keep the reduction's oracle re-runs out of the global
            // coverage hit bits so --minimize does not change coverage
            // (requires no collector active on this thread; sharded
            // campaigns go through runParallelCampaign instead).
            coverage::CoverageCollector scratch;
            reduce::minimizeBugs(outcome.bugs, backends);
        }
        loop.add(outcome.cost, outcome.produced, std::move(outcome.bugs),
                 std::move(outcome.instanceKeys));
    }
    loop.finish();
    result.coverAll = registry.snapshot(config.coverageComponent);
    result.coverPass =
        registry.snapshotPassOnly(config.coverageComponent);
    if (!config.reportDir.empty())
        reduce::writeReproReports(result.bugs, config.reportDir);
    return result;
}

std::string
renderCampaignResult(const CampaignResult& result)
{
    // Graph repros re-run the ONNX export while rendering; keep its
    // coverage hits and defect triggers out of the caller's state.
    coverage::CoverageCollector scratch;
    backends::DefectRegistry::TraceScope trace_scope;
    auto line = [](const char* label, const auto& value) {
        return std::string(label) + " " + std::to_string(value) + "\n";
    };
    std::string out = "nnsmith-campaign-result 1\n";
    out += "fuzzer " + result.fuzzer + "\n";
    out += line("iterations", result.iterations);
    out += line("produced", result.produced);
    out += line("virtual-time", result.virtualTime);
    out += line("active-time", result.activeTime);
    out += line("series", result.series.size());
    for (const auto& point : result.series) {
        char buffer[96];
        std::snprintf(buffer, sizeof buffer, "point %.17g %zu %zu %zu\n",
                      point.minutes, point.iterations, point.coverageAll,
                      point.coveragePass);
        out += buffer;
    }
    // Site keys, not BranchIds: ids are numbered in first-discovery
    // order, which differs across processes and schedules.
    auto sites = [&](const char* label, const coverage::CoverageMap& map) {
        const std::vector<coverage::BranchId> ids(map.branches().begin(),
                                                  map.branches().end());
        std::vector<std::string> keys;
        for (auto& info : CoverageRegistry::instance().describeSites(ids))
            keys.push_back(std::move(info.key));
        std::sort(keys.begin(), keys.end());
        out += line(label, keys.size());
        for (const auto& key : keys)
            out += "site " + key + "\n";
    };
    sites("cover-all", result.coverAll);
    sites("cover-pass", result.coverPass);
    out += line("instance-keys", result.instanceKeys.size());
    for (const auto& key : result.instanceKeys)
        out += "key " + key + "\n";
    out += line("defects-found", result.defectsFound.size());
    for (const auto& defect : result.defectsFound)
        out += "defect " + defect + "\n";
    out += line("bugs", result.bugs.size());
    for (const auto& [key, bug] : result.bugs) {
        const std::string document = wire::encodeBug(bug);
        out += line("bug", document.size()) + document + "\n";
    }
    const std::string regressions =
        corpus::renderRegressions(result.regressions);
    out += line("regressions", regressions.size()) + regressions;
    out += "end-campaign-result\n";
    return out;
}

} // namespace nnsmith::fuzz
