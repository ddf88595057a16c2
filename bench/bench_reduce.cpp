/**
 * @file
 * Defect-reduction quality + overhead harness.
 *
 * Four sections:
 *
 *  1. "graph reduction": a 200-iteration NNSmith campaign against the
 *     full backend trio with --minimize on. Every flagged case must be
 *     reduced to a repro that re-validates and still triggers the
 *     identical defect-trace fingerprint (reduce::reproStillFires);
 *     reports the median node-count reduction ratio and the dedup
 *     collapse (bug reports with vs without fingerprint rekeying).
 *
 *  2. "sequence reduction": the same over a PassSequenceFuzzer
 *     campaign — median pass-count reduction ratio of the minimal
 *     failing subsequences.
 *
 *  3. "shard invariance": the minimizing campaign at shards 1, 2 and 4
 *     must render byte-identically (fuzz::renderCampaignResult;
 *     minimization is per-iteration deterministic, so it composes with
 *     the sharded runner).
 *
 *  4. "overhead": wall-clock campaign throughput with minimization off
 *     vs on.
 *
 * BENCH_reduce.json at the repo root is a committed record of this
 * output (see DESIGN.md "Reduction & reporting").
 *
 *   ./bench/bench_reduce [--seed N] [--iters N] [--out FILE]
 *                        [--report-dir DIR]
 */
#include <thread>

#include "bench_util.h"
#include "graph/validate.h"
#include "json.h"
#include "reduce/reducer.h"

namespace {

using namespace nnsmith;
using bench::Clock;
using bench::secondsSince;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

/** Reduction quality over one campaign's deduplicated bug map. */
struct ReductionAudit {
    size_t withRepro = 0;
    size_t minimized = 0;
    size_t verified = 0;   ///< minimized repro re-fires its fingerprint
    size_t validated = 0;  ///< minimized graphs passing graph/validate
    std::vector<double> ratios; ///< minimized / original size
};

ReductionAudit
audit(const fuzz::CampaignResult& result,
      const std::vector<backends::Backend*>& backends)
{
    ReductionAudit out;
    for (const auto& [key, bug] : result.bugs) {
        const bool graph_bug = bug.graphRepro != nullptr;
        if (!graph_bug && bug.seqRepro == nullptr)
            continue;
        ++out.withRepro;
        if (!bug.minimized)
            continue;
        ++out.minimized;
        out.ratios.push_back(static_cast<double>(bug.minimizedSize) /
                             static_cast<double>(bug.originalSize));
        if (graph_bug &&
            graph::validate(bug.graphRepro->graph).ok())
            ++out.validated;
        if (reduce::reproStillFires(bug, backends))
            ++out.verified;
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    // The acceptance campaign size: 200 iterations.
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/200);

    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> backend_list;
    for (auto& backend : owned)
        backend_list.push_back(backend.get());

    // ---- 1 + 4. graph reduction & overhead ---------------------------
    auto start = Clock::now();
    auto unminimized =
        bench::trioCampaign(options.seed, options.iters, "tvmlite", "");
    unminimized.campaign.minimize = false;
    const auto baseline = fuzz::runParallelCampaign(unminimized);
    const double off_seconds = secondsSince(start);

    start = Clock::now();
    const auto minimized = fuzz::runParallelCampaign(bench::trioCampaign(
        options.seed, options.iters, "tvmlite", options.reportDir));
    const double on_seconds = secondsSince(start);

    const ReductionAudit graphs = audit(minimized, backend_list);
    const double node_ratio = median(graphs.ratios);
    const double off_ips =
        static_cast<double>(baseline.iterations) / off_seconds;
    const double on_ips =
        static_cast<double>(minimized.iterations) / on_seconds;
    std::printf("graph reduction: %zu flagged reports (%zu raw), "
                "%zu minimized, %zu verified, median node ratio %.3f\n",
                minimized.bugs.size(), baseline.bugs.size(),
                graphs.minimized, graphs.verified, node_ratio);
    std::printf("overhead: %.3f iters/sec off vs %.3f on "
                "(%zu iterations)\n",
                off_ips, on_ips, minimized.iterations);

    // ---- 2. sequence reduction ---------------------------------------
    const auto seq_result = fuzz::runParallelCampaign(
        bench::sequenceCampaign(options.seed, options.iters, ""));
    const ReductionAudit seqs = audit(seq_result, {});
    const double pass_ratio = median(seqs.ratios);
    std::printf("sequence reduction: %zu flagged, %zu minimized, "
                "%zu verified, median pass ratio %.3f\n",
                seqs.withRepro, seqs.minimized, seqs.verified, pass_ratio);

    // ---- 3. shard invariance with --minimize -------------------------
    const auto two = fuzz::runParallelCampaign(bench::trioCampaign(
        options.seed, options.iters, "tvmlite", "", "", 2,
        options.workerMode));
    const auto four = fuzz::runParallelCampaign(bench::trioCampaign(
        options.seed, options.iters, "tvmlite", "", "", 4,
        options.workerMode));
    const std::string reference = fuzz::renderCampaignResult(minimized);
    const bool identical = fuzz::renderCampaignResult(two) == reference &&
                           fuzz::renderCampaignResult(four) == reference;
    std::printf("sharded minimizing campaign identical "
                "(1 vs 2 vs 4 shards): %s\n",
                identical ? "yes" : "NO — BUG");

    // Guard against a vacuous pass: a regression that stops attaching
    // repros would zero out withRepro and make every ratio/equality
    // below trivially true.
    const bool all_minimized =
        graphs.withRepro > 0 &&
        graphs.minimized == graphs.withRepro &&
        seqs.minimized == seqs.withRepro;
    const bool all_verified = graphs.verified == graphs.minimized &&
                              seqs.verified == seqs.minimized;
    const bool ratios_ok = node_ratio <= 0.5 && pass_ratio <= 0.5;

    bench::Json json;
    json.beginObject()
        .field("bench", "reduce")
        .field("driver", "bench/bench_reduce --iters " +
                             std::to_string(options.iters) + " --seed " +
                             std::to_string(options.seed))
        .field("hardware_threads", std::thread::hardware_concurrency());
    json.key("graph_reduction")
        .beginObject()
        .field("campaign_iterations", minimized.iterations)
        .field("raw_bug_reports", baseline.bugs.size())
        .field("minimized_bug_reports", minimized.bugs.size())
        .field("flagged_with_repro", graphs.withRepro)
        .field("minimized", graphs.minimized)
        .field("revalidated", graphs.validated)
        .field("fingerprint_verified", graphs.verified)
        .field("median_node_ratio", node_ratio, 3)
        .endObject();
    json.key("sequence_reduction")
        .beginObject()
        .field("flagged_with_repro", seqs.withRepro)
        .field("minimized", seqs.minimized)
        .field("fingerprint_verified", seqs.verified)
        .field("median_pass_ratio", pass_ratio, 3)
        .endObject();
    json.key("sharded_campaign")
        .beginObject()
        .field("merged_results_identical_1_2_4", identical)
        .endObject();
    json.key("overhead")
        .beginObject()
        .field("note", "same campaign, minimize off vs on")
        .field("iters_per_sec_minimize_off", off_ips, 3)
        .field("iters_per_sec_minimize_on", on_ips, 3)
        .endObject()
        .endObject();
    if (!bench::writeJson(options.outPath, json))
        return 1;
    return all_minimized && all_verified && ratios_ok && identical ? 0 : 1;
}
