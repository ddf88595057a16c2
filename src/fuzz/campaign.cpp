#include "fuzz/campaign.h"

#include <algorithm>
#include <cstdio>

#include "backends/defects.h"
#include "fuzz/wire.h"

namespace nnsmith::fuzz {

using coverage::CoverageRegistry;

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
