/**
 * @file
 * The identity driver: every axis of the byte-identical merge contract
 * in one binary -> BENCH_identity.json.
 *
 * The base campaign is Fig. 4's NNSmith (value search on, at its
 * default 256-iteration cap) against OrtLite. It minimizes, writes a
 * report tree and replays a seed corpus that one untimed campaign
 * writes first, so minimized repros and regressions.tsv are part of
 * every identity text (bench/identity.h). Each section runs the worker
 * matrix {thread, process} × shards {1, 2, 4}:
 *
 *  1. base — wall-clock speedup_vs_serial per cell (read it against
 *     hardware_threads: on one core every cell shares one CPU).
 *  2. telemetry — metrics, trace, heartbeats and a progress aggregator
 *     on, held to the *base* reference (DESIGN.md "Telemetry"); then a
 *     paired off/on probe of thread×1 records overhead_pct (recorded,
 *     not gated, so a loaded machine cannot flake the run). Only this
 *     section runs with telemetry on: --trace-out and --metrics-out
 *     receive its spans and metrics.
 *  3. batch — batch 4 with the batched sweep on and off, held to their
 *     own first cell; then cases/sec at batch 1/4/16 with value search
 *     off, gated ≥ 1.5× at 16 vs 1, next to comparable cases/sec (the
 *     lanes the oracle compared: comparisons − crashes − NaN skips).
 *  4. corpus-guided — emit a graph corpus (NNSmith vs the difftest
 *     trio) and a sequence corpus (PassSequenceFuzzer); at a fresh
 *     master seed guidance must not lose pass bins or deduped bugs
 *     against the unguided baseline; then the guided graph campaign
 *     runs the matrix.
 *
 * Every section's first cell must be non-vacuous: bugs found,
 * index.tsv written, corpus replayed. Exits nonzero if any gate fails.
 *
 *   ./bench/bench_identity [--seed N] [--iters N] [--minutes N]
 *                          [--out FILE] [--trace-out F]
 *                          [--metrics-out F]
 */
#include <filesystem>
#include <thread>

#include "bench_util.h"
#include "corpus/corpus.h"
#include "identity.h"
#include "json.h"

namespace {

using namespace nnsmith;
namespace fs = std::filesystem;

/** The base campaign at @p cell; sections adjust its fields. */
fuzz::ParallelCampaignConfig
baseCampaign(const bench::BenchOptions& options, bench::WorkerCell cell,
             const std::string& report_dir, const std::string& corpus_dir)
{
    auto config = bench::campaignConfig(
        options.seed, options.iters, "ortlite", bench::nnsmithFactory(),
        [] {
            std::vector<std::unique_ptr<backends::Backend>> owned;
            owned.push_back(backends::makeOrtLite());
            return owned;
        },
        options.minutes);
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    config.campaign.corpusDir = corpus_dir;
    config.shards = cell.shards;
    config.workerMode = cell.mode;
    return config;
}

/** Metrics and the trace sink on or off for the whole process. */
void
setTelemetry(bool on, const std::string& trace_path)
{
    obs::setMetricsEnabled(on);
    if (on)
        obs::traceOpen(trace_path);
    else
        obs::traceClose();
}

uint64_t
counter(const std::string& name)
{
    const auto counters = obs::metricsSnapshot().counters;
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

/** One section's cells: their span [first, end) in their matrix and
 *  the report dir of the first. */
struct Section {
    explicit Section(const char* section_name) : name(section_name) {}

    const char* name;
    size_t first = 0, end = 0;
    fs::path firstDir;
    bool identical = false; ///< every cell matches the matrix reference
    bool ok = false;        ///< identical, and the first cell non-vacuous
};

/**
 * Run the worker matrix through @p matrix as @p section, each cell
 * writing reports under base/<section>/[<tag>-]<mode>-<shards> and
 * built by @p make(cell, report_dir). The section is ok when its cells
 * are identical to the matrix reference and its first cell found bugs,
 * wrote index.tsv and replayed the corpus.
 */
template <typename Make>
void
runSection(bench::IdentityMatrix& matrix, Section& section,
           const fs::path& base, const std::string& tag, Make make)
{
    if (section.end == 0)
        section.first = matrix.cells().size();
    for (const auto& cell : bench::workerMatrix()) {
        const auto dir = base / section.name /
                         ((tag.empty() ? "" : tag + "-") +
                          fuzz::workerModeName(cell.mode) + "-" +
                          std::to_string(cell.shards));
        if (matrix.cells().size() == section.first)
            section.firstDir = dir;
        matrix.run(make(cell, dir.string()),
                   std::string(section.name) + " " + tag + " ");
    }
    const auto& cells = matrix.cells();
    section.end = cells.size();
    section.identical = std::all_of(
        cells.begin() + section.first, cells.end(),
        [](const auto& cell) { return cell.identical; });
    const auto& first = cells[section.first].result;
    section.ok = section.identical && !first.bugs.empty() &&
                 fs::exists(section.firstDir / "index.tsv") &&
                 first.regressions.total() > 0;
}

/** @p section's "identical" flag and "cells" array. The base section
 *  adds speedup_vs_serial; the batch section its "sweep" axis (its
 *  first pass over the matrix ran the sweep on). */
void
writeSection(bench::Json& json, const bench::IdentityMatrix& matrix,
             const Section& section, bool speedup = false,
             bool sweep_axis = false)
{
    json.field("identical", section.identical).key("cells").beginArray();
    const auto& cells = matrix.cells();
    for (size_t i = section.first; i < section.end; ++i) {
        json.beginObject(true);
        if (sweep_axis)
            json.field("sweep", i - section.first <
                                    bench::workerMatrix().size());
        json.field("worker_mode", fuzz::workerModeName(cells[i].mode))
            .field("shards", cells[i].shards)
            .field("wall_seconds", cells[i].seconds, 3);
        if (speedup)
            json.field("speedup_vs_serial",
                       cells[section.first].seconds / cells[i].seconds, 2);
        json.field("identical", cells[i].identical).endObject();
    }
    json.endArray();
}

/** Print and record one campaign's discovery-speed scoreboard. */
void
writeScore(bench::Json& json, const char* label,
           const fuzz::CampaignResult& result)
{
    std::printf("  %-14s coverage=%zu pass_bins=%zu bugs=%zu "
                "instances=%zu\n",
                label, result.coverAll.count(), result.coverPass.count(),
                result.bugs.size(), result.instanceKeys.size());
    json.key(label)
        .beginObject(true)
        .field("coverage", result.coverAll.count())
        .field("pass_bins", result.coverPass.count())
        .field("bugs", result.bugs.size())
        .field("instances", result.instanceKeys.size())
        .endObject();
}

const char*
verdict(bool ok)
{
    return ok ? "yes" : "NO — BUG";
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/120);
    // parseArgs turned the telemetry flags on for the whole process;
    // only the telemetry section runs with them.
    setTelemetry(false, "");
    obs::setProgressRequested(false);

    const fs::path base =
        fs::temp_directory_path() / "nnsmith-bench-identity";
    fs::remove_all(base);
    fs::create_directories(base);
    const std::string trace_path = options.traceOut.empty()
                                       ? (base / "trace.jsonl").string()
                                       : options.traceOut;
    const bench::WorkerCell serial{fuzz::WorkerMode::kThread, 1};
    const std::string corpus = (base / "corpus").string();
    (void)fuzz::runParallelCampaign(
        baseCampaign(options, serial, corpus, ""));
    const auto base_cell = [&](bench::WorkerCell cell,
                               const std::string& dir) {
        return baseCampaign(options, cell, dir, corpus);
    };

    bench::Json json;
    json.beginObject()
        .field("bench", "identity")
        .field("driver", "bench/bench_identity --iters " +
                             std::to_string(options.iters) + " --seed " +
                             std::to_string(options.seed))
        .field("fuzzer", "NNSmith")
        .field("component", "ortlite")
        .field("seed", options.seed)
        .field("virtual_minutes", options.minutes)
        .field("hardware_threads", std::thread::hardware_concurrency());

    // ---- 1 + 2. base, then telemetry on, against one reference ------
    bench::IdentityMatrix matrix;
    Section base_section{"base"}, telemetry{"telemetry"};
    runSection(matrix, base_section, base, "", base_cell);
    setTelemetry(true, trace_path);
    runSection(matrix, telemetry, base, "",
               [&](bench::WorkerCell cell, const std::string& dir) {
                   auto config = base_cell(cell, dir);
                   obs::ProgressOptions progress;
                   progress.printToStderr = false;
                   config.progress =
                       std::make_shared<obs::ProgressAggregator>(progress);
                   return config;
               });
    setTelemetry(false, trace_path);
    const auto& reference = matrix.reference();
    json.key("base")
        .beginObject()
        .field("iterations", reference.iterations)
        .field("bugs", reference.bugs.size())
        .field("coverage", reference.coverAll.count())
        .field("regressions", reference.regressions.total());
    writeSection(json, matrix, base_section, /*speedup=*/true);
    json.endObject();

    // Overhead probe: interleaved off/on thread×1 runs. Wall-clock on
    // shared machines drifts far more between *runs* than telemetry
    // costs within one, so the estimator is paired: each adjacent
    // off/on pair shares its time window, the per-pair on/off ratio
    // cancels the drift, and the median ratio discards the windows a
    // noisy neighbor spoiled. Min times are recorded alongside.
    const int kReps = 7;
    double best[2] = {1e100, 1e100};
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
        double pair[2] = {0.0, 0.0};
        for (const bool on : {false, true}) {
            const auto config = base_cell(serial, "");
            setTelemetry(on, trace_path);
            const auto start = bench::Clock::now();
            (void)fuzz::runParallelCampaign(config);
            pair[on] = bench::secondsSince(start);
            setTelemetry(false, trace_path);
            best[on] = std::min(best[on], pair[on]);
        }
        ratios.push_back(pair[1] / pair[0]);
    }
    std::sort(ratios.begin(), ratios.end());
    const double overhead_pct = (ratios[kReps / 2] - 1.0) * 100.0;
    std::printf("telemetry overhead: off=%.3fs on=%.3fs (min of %d); "
                "median paired ratio %+.2f%%\n",
                best[0], best[1], kReps, overhead_pct);
    json.key("telemetry")
        .beginObject()
        .field("overhead_off_seconds", best[0], 3)
        .field("overhead_on_seconds", best[1], 3)
        .field("overhead_pct", overhead_pct, 2);
    writeSection(json, matrix, telemetry);
    json.endObject();

    // ---- 3. batch: sweep on/off identity, then throughput ------------
    const size_t kIdentityBatch = 4;
    bench::IdentityMatrix batch_matrix;
    Section batch{"batch"};
    for (const bool sweep : {true, false})
        runSection(batch_matrix, batch, base,
                   sweep ? "sweep=on" : "sweep=off",
                   [&](bench::WorkerCell cell, const std::string& dir) {
                       auto config = base_cell(cell, dir);
                       config.fuzzerFactory = bench::nnsmithFactory(
                           true, kIdentityBatch, sweep);
                       return config;
                   });
    // Every run has the same number of *iterations*; a batch-B
    // iteration executes B fuzz cases, so cases/sec is the comparable
    // throughput unit. Metrics stay on to count the compared lanes.
    json.key("batch").beginObject().key("throughput").beginArray();
    const auto comparable = [] {
        return counter("oracle.comparisons") - counter("oracle.crashes") -
               counter("oracle.skipped_nan");
    };
    std::vector<double> cases_per_sec;
    obs::setMetricsEnabled(true);
    for (const size_t b : {size_t{1}, size_t{4}, size_t{16}}) {
        auto config = baseCampaign(options, serial, "", "");
        config.campaign.minimize = false;
        // Value search off: the numbers measure case execution.
        config.fuzzerFactory = bench::nnsmithFactory(false, b);
        const uint64_t before = comparable();
        const auto start = bench::Clock::now();
        const auto result = fuzz::runParallelCampaign(config);
        const double seconds = bench::secondsSince(start);
        const size_t cases = result.iterations * b;
        cases_per_sec.push_back(cases / seconds);
        const double comparable_rate = (comparable() - before) / seconds;
        std::printf("batch=%-3zu iters=%zu cases=%zu  %.3fs  %.1f "
                    "cases/sec, %.1f comparable\n",
                    b, result.iterations, cases, seconds,
                    cases_per_sec.back(), comparable_rate);
        json.beginObject(true)
            .field("batch", b)
            .field("iterations", result.iterations)
            .field("cases", cases)
            .field("wall_seconds", seconds, 3)
            .field("cases_per_sec", cases_per_sec.back(), 1)
            .field("comparable_cases_per_sec", comparable_rate, 1)
            .endObject();
    }
    obs::setMetricsEnabled(false);
    const double speedup = cases_per_sec.back() / cases_per_sec.front();
    const bool fast_enough = speedup >= 1.5;
    std::printf("throughput batch=16 vs batch=1: %.2fx (gate 1.50x): %s\n",
                speedup, verdict(fast_enough));
    json.endArray()
        .field("speedup_b16_vs_b1", speedup, 2)
        .field("identity_batch", kIdentityBatch)
        .field("identity_bugs", batch_matrix.reference().bugs.size());
    writeSection(json, batch_matrix, batch, false, /*sweep_axis=*/true);
    json.endObject();

    // ---- 4. corpus-guided discovery, then its identity matrix --------
    // The graph campaign counts the trio's whole optimizer surface
    // (empty coverage prefix); both run with guidance exactly when
    // they are given a corpus.
    const auto graph_campaign = [&](bench::WorkerCell cell, uint64_t seed,
                                    const std::string& dir,
                                    const std::string& corpus_dir) {
        auto config = bench::trioCampaign(seed, options.iters, "", dir,
                                          corpus_dir, cell.shards, cell.mode);
        config.campaign.corpusGuided = !corpus_dir.empty();
        return config;
    };
    const auto sequence_campaign = [&](uint64_t seed, const std::string& dir,
                                       const std::string& corpus_dir) {
        auto config =
            bench::sequenceCampaign(seed, options.iters, dir, corpus_dir);
        config.campaign.corpusGuided = !corpus_dir.empty();
        return config;
    };
    const std::string graph_dir = (base / "graph").string();
    const std::string seq_dir = (base / "seq").string();
    (void)fuzz::runParallelCampaign(
        graph_campaign(serial, options.seed, graph_dir, ""));
    (void)fuzz::runParallelCampaign(
        sequence_campaign(options.seed, seq_dir, ""));
    json.key("corpus_guided")
        .beginObject()
        .field("graph_repros", corpus::loadCorpusIndex(graph_dir).size())
        .field("sequence_repros", corpus::loadCorpusIndex(seq_dir).size());

    // At a fresh master seed, guided fresh iterations draw the exact
    // cases of the baseline's, so the comparison isolates what the
    // mutated iterations add.
    const uint64_t measure_seed = options.seed + 1;
    const auto graph_baseline = fuzz::runParallelCampaign(
        graph_campaign(serial, measure_seed, "", ""));
    const auto graph_guided = fuzz::runParallelCampaign(graph_campaign(
        serial, measure_seed, (base / "guided_graph").string(), graph_dir));
    const auto seq_baseline = fuzz::runParallelCampaign(
        sequence_campaign(measure_seed, "", ""));
    const auto seq_guided = fuzz::runParallelCampaign(sequence_campaign(
        measure_seed, (base / "guided_seq").string(), seq_dir));
    std::printf("graph campaign:\n");
    json.key("graph_campaign").beginObject();
    writeScore(json, "baseline", graph_baseline);
    writeScore(json, "corpus_guided", graph_guided);
    std::printf("sequence campaign:\n");
    json.endObject().key("sequence_campaign").beginObject();
    writeScore(json, "baseline", seq_baseline);
    writeScore(json, "corpus_guided", seq_guided);
    json.endObject();
    const bool guided_not_worse =
        graph_guided.coverPass.count() >= graph_baseline.coverPass.count() &&
        graph_guided.bugs.size() >= graph_baseline.bugs.size() &&
        seq_guided.coverPass.count() >= seq_baseline.coverPass.count() &&
        seq_guided.bugs.size() >= seq_baseline.bugs.size();
    std::printf("guided >= baseline on pass bins and deduped bugs: %s\n",
                verdict(guided_not_worse));

    bench::IdentityMatrix guided_matrix;
    Section guided{"guided"};
    runSection(guided_matrix, guided, base, "",
               [&](bench::WorkerCell cell, const std::string& dir) {
                   return graph_campaign(cell, measure_seed, dir, graph_dir);
               });
    fs::remove_all(base);
    json.field("guided_not_worse", guided_not_worse);
    writeSection(json, guided_matrix, guided);
    json.endObject();

    const bool ok = base_section.ok && telemetry.ok && batch.ok &&
                    fast_enough && guided_not_worse && guided.ok;
    std::printf("identity: base %s, telemetry %s, batch %s, guided %s; "
                "all gates: %s\n",
                verdict(base_section.ok), verdict(telemetry.ok),
                verdict(batch.ok), verdict(guided.ok), verdict(ok));
    json.field("ok", ok).endObject();
    if (!bench::writeJson(options.outPath, json))
        return 1;
    return ok ? 0 : 1;
}
