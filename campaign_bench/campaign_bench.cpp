/**
 * @file
 * Campaign benchmark driver (see README.md in this directory).
 *
 * One invocation measures one workload:
 *
 *   campaign_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                  [--corpus DIR] [--work-dir DIR] [--commit SHA]
 *                  [--iters N] [--break-check orphan-bug]
 *
 * --trace 0 runs a fixed number of campaign segments per --seconds
 * (fixed-length campaigns, each with a master seed derived from --seed)
 * through the public fuzz::runParallelCampaign API, and prints the
 * end-to-end metrics. --trace 1 runs the first half of the segments
 * once untraced and once through the benchmark's own single-shard loop
 * that times every layer's public entry point, and prints the per-layer
 * metrics. Either
 * way the output checks run afterwards, outside every timing, and a
 * failed check makes the command exit 1. The last stdout line is one
 * JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "autodiff/grad_search.h"
#include "backends/defects.h"
#include "corpus/replay.h"
#include "difftest/oracle.h"
#include "coverage/coverage.h"
#include "exec/batched.h"
#include "exec/interpreter.h"
#include "fuzz/mutator.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/wire.h"
#include "gen/generator.h"
#include "onnx/exporter.h"
#include "reduce/reducer.h"
#include "solver/solver.h"

namespace {

using namespace nnsmith;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** CPU time of the whole process (all threads) so far, in ms. */
double
processCpuMs()
{
    timespec now {};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e3 +
           static_cast<double>(now.tv_nsec) / 1e6;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
    std::string name;
    size_t iterations; ///< fixed length of one campaign segment
    int shards;        ///< thread shards = closed-loop clients
    size_t batch;      ///< input lanes per generated graph
    bool trio;         ///< all three backends (else OrtLite only)
    bool guided;       ///< corpus replay + guided mutation + minimization
    size_t setupReps;  ///< back-to-back set-ups per set-up sample
};

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"fresh-ort", 120, 1, 1, false, false, 100},
        {"batch-trio", 60, 2, 16, true, false, 100},
        {"guided-reduce", 55, 1, 1, true, true, 4},
    };
    return all;
}

/**
 * Segments of a run: eight per thirty --seconds, never a count that
 * depends on how fast the host is, so every run of a seed times the
 * same campaigns. A segment takes about 2 s and its untimed lane-count
 * re-run about 1 s, so a run takes about --seconds.
 */
size_t
segmentCount(int seconds)
{
    return std::max<long>(1, std::lround(seconds * 0.27));
}

struct Options {
    std::string workload;
    uint64_t seed = 2023;
    int seconds = 10;
    int trace = 0;
    std::string corpus = "tests/data/corpus";
    std::string workDir = ".bench_build/work";
    std::string commit = "unknown";
    size_t iters = 0; ///< 0 = the workload's own count
    std::string breakCheck;
};

[[noreturn]] void
usage(const std::string& message)
{
    std::fprintf(stderr, "campaign_bench: %s\n", message.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::stoull(value);
            else if (flag == "--seconds")
                options.seconds = std::stoi(value);
            else if (flag == "--trace")
                options.trace = std::stoi(value);
            else if (flag == "--corpus")
                options.corpus = value;
            else if (flag == "--work-dir")
                options.workDir = value;
            else if (flag == "--commit")
                options.commit = value;
            else if (flag == "--iters")
                options.iters = std::stoul(value);
            else if (flag == "--break-check")
                options.breakCheck = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (options.trace != 0 && options.trace != 1)
        usage("--trace must be 0 or 1");
    if (options.seconds < 1)
        usage("--seconds must be >= 1");
    if (!options.breakCheck.empty() && options.breakCheck != "orphan-bug")
        usage("--break-check supports only orphan-bug");
    return options;
}

fuzz::NNSmithFuzzer::Options
fuzzerOptions(const Workload& workload)
{
    fuzz::NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 10; // §5.1 default size
    // Load independence: no wall-clock budget, so the iteration cap
    // alone decides which leaves value search finds.
    options.search.timeBudgetMs = std::numeric_limits<double>::infinity();
    options.batch = workload.batch;
    return options;
}

fuzz::BackendFactory
backendFactory(const Workload& workload)
{
    if (workload.trio)
        return [] { return difftest::makeAllBackends(); };
    return [] {
        std::vector<std::unique_ptr<backends::Backend>> owned;
        owned.push_back(backends::makeOrtLite());
        return owned;
    };
}

/** The workload's campaign config; the fuzzer factory is set by callers. */
fuzz::ParallelCampaignConfig
campaignConfig(const Workload& workload, uint64_t seed, size_t iterations,
               const std::string& corpus_dir)
{
    fuzz::ParallelCampaignConfig config;
    // The iteration count, never the virtual budget, ends the campaign.
    config.campaign.virtualBudget = std::numeric_limits<VirtualMs>::max() / 2;
    config.campaign.maxIterations = iterations;
    config.campaign.coverageComponent = "";
    config.campaign.minimize = workload.guided;
    config.campaign.corpusDir = workload.guided ? corpus_dir : "";
    config.shards = workload.shards;
    config.masterSeed = seed;
    config.backendFactory = backendFactory(workload);
    return config;
}

/** A private copy of the golden corpus (replay writes into its dir). */
class CorpusCopy {
  public:
    CorpusCopy(const Options& options, bool needed)
    {
        if (!needed)
            return;
        static int serial = 0;
        dir_ = options.workDir + "/corpus-" + std::to_string(::getpid()) +
               "-" + std::to_string(serial++);
        fs::remove_all(dir_);
        fs::create_directories(fs::path(dir_).parent_path());
        fs::copy(options.corpus, dir_, fs::copy_options::recursive);
    }
    ~CorpusCopy()
    {
        if (!dir_.empty()) {
            std::error_code ignored;
            fs::remove_all(dir_, ignored);
        }
    }
    CorpusCopy(const CorpusCopy&) = delete;
    CorpusCopy& operator=(const CorpusCopy&) = delete;

    const std::string& dir() const { return dir_; }

  private:
    std::string dir_;
};

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** 1-based nearest rank of percentile @p p among @p n samples. */
size_t
nearestRank(size_t n, double p)
{
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

/** Nearest-rank percentile of @p sorted (ascending, non-empty). */
double
percentile(const std::vector<double>& sorted, double p)
{
    return sorted[nearestRank(sorted.size(), p) - 1];
}

/** Highest percentile of a ladder with at least 10 samples beyond it. */
double
tailPercentile(size_t samples)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0})
        if (samples >= nearestRank(samples, p) + 10)
            return p;
    return 50.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------------
// Fuzzers: the untraced latency probe and the traced layer timer
// ---------------------------------------------------------------------------

/** Times each iterate() of the workload's real fuzzer. */
class LatencyFuzzer final : public fuzz::Fuzzer {
  public:
    struct Sink {
        std::mutex mu;
        std::vector<double> ms;
    };

    LatencyFuzzer(std::unique_ptr<fuzz::Fuzzer> inner, Sink& sink)
        : inner_(std::move(inner)), sink_(sink)
    {
    }

    std::string name() const override { return inner_->name(); }

    fuzz::IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) override
    {
        const auto start = Clock::now();
        auto outcome = inner_->iterate(backend_list);
        const double ms = msSince(start);
        std::lock_guard<std::mutex> lock(sink_.mu);
        sink_.ms.push_back(ms);
        return outcome;
    }

  private:
    std::unique_ptr<fuzz::Fuzzer> inner_;
    Sink& sink_;
};

/** Per-layer accumulators of one traced shard's thread. */
struct LayerStats {
    double genMs = 0, searchMs = 0, caseMs = 0, innerMs = 0, outerMs = 0;
    double reduceMs = 0, coverageMs = 0, wireMs = 0, mergeMs = 0;
    double loopMs = 0, probeMs = 0, replayMs = 0, poolMs = 0, backendMs = 0;
    size_t iterations = 0, runs = 0;
    size_t genCalls = 0, genFailed = 0, queries = 0, rejected = 0;
    size_t searchCalls = 0, searchOk = 0, searchIters = 0;
    size_t lanes = 0, innerCalls = 0, mutatedIters = 0;
    size_t reduceBugs = 0, reduceMinimized = 0;
    size_t coverageIds = 0, wireBytes = 0, replayStillFires = 0;
    // Finer split, from re-running each fresh case's parts.
    size_t probeLanes = 0, comparable = 0, nanSkip = 0, crashLanes = 0;
    size_t exports = 0;
    double exportMs = 0, refMs = 0;
    std::map<std::string, std::pair<double, size_t>> backendRuns;
};

/** The last fresh case a traced fuzzer executed, for the probe. */
struct PendingCase {
    bool set = false;
    graph::Graph graph;
    std::vector<exec::LeafValues> lanes;
};

/**
 * NNSmithFuzzer::iterate, step for step, with each layer's public
 * entry point timed: gen::GraphGenerator::generate, autodiff::search,
 * fuzz::executeGraphCaseBatch. The traced run checks that its merged
 * result equals the untraced run's, so a drift from the real fuzzer
 * shows.
 */
class TracedNNSmith final : public fuzz::Fuzzer {
  public:
    TracedNNSmith(fuzz::NNSmithFuzzer::Options options, uint64_t seed,
                  LayerStats& stats, PendingCase& pending)
        : options_(std::move(options)), rng_(seed), seed_(seed),
          stats_(stats), pending_(pending)
    {
    }

    std::string name() const override { return "NNSmith"; }

    fuzz::IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) override
    {
        const auto start = Clock::now();
        ++stats_.innerCalls;
        auto t = Clock::now();
        gen::GraphGenerator generator(options_.generator, seed_);
        auto model = generator.generate();
        stats_.genMs += msSince(t);
        ++stats_.genCalls;
        if (!model) {
            ++stats_.genFailed;
            fuzz::IterationOutcome outcome;
            outcome.cost = options_.cost.generationPerOp *
                           options_.generator.targetOpNodes;
            stats_.innerMs += msSince(start);
            return outcome;
        }
        stats_.queries += static_cast<size_t>(model->solverQueries);
        stats_.rejected += static_cast<size_t>(model->rejectedInsertions);

        t = Clock::now();
        exec::LeafValues leaves;
        if (options_.runValueSearch) {
            auto search =
                autodiff::search(model->graph, rng_, options_.search);
            ++stats_.searchCalls;
            stats_.searchOk += search.success ? 1 : 0;
            stats_.searchIters += static_cast<size_t>(search.iterations);
            leaves = search.success
                         ? std::move(search.values)
                         : exec::randomLeaves(model->graph, rng_,
                                              options_.search.initLo,
                                              options_.search.initHi);
        } else {
            leaves = exec::randomLeaves(model->graph, rng_);
        }
        stats_.searchMs += msSince(t);

        t = Clock::now();
        std::vector<exec::LeafValues> lanes;
        lanes.reserve(std::max<size_t>(options_.batch, 1));
        lanes.push_back(std::move(leaves));
        for (size_t l = 1; l < options_.batch; ++l)
            lanes.push_back(exec::randomLeaves(model->graph, rng_));
        stats_.genMs += msSince(t);

        t = Clock::now();
        fuzz::IterationOutcome outcome = fuzz::executeGraphCaseBatch(
            model->graph, lanes, backend_list, options_.cost,
            /*sweep=*/options_.batchSweep && lanes.size() > 1);
        stats_.caseMs += msSince(t);
        stats_.lanes += lanes.size();

        outcome.cost +=
            options_.cost.generationPerOp * model->graph.numOpNodes() +
            (options_.runValueSearch ? options_.cost.valueSearch : 0);
        outcome.instanceKeys = model->instanceKeys();
        pending_.set = true;
        pending_.graph = std::move(model->graph);
        pending_.lanes = std::move(lanes);
        stats_.innerMs += msSince(start);
        return outcome;
    }

  private:
    fuzz::NNSmithFuzzer::Options options_;
    Rng rng_;
    uint64_t seed_;
    LayerStats& stats_;
    PendingCase& pending_;
};

/**
 * Re-run a fresh case's parts outside the traced wall: export once,
 * the reference interpreter over all lanes (exec::executeBatched, as
 * the oracle runs it), and (when @p run_backends) every backend at O3
 * per lane. Counts lanes the oracle compares: export succeeded and the
 * reference is numerically valid.
 */
void
probeCase(const PendingCase& pending,
          const std::vector<backends::Backend*>& backend_list,
          bool run_backends, LayerStats& stats)
{
    backends::DefectRegistry::TraceScope scope;
    auto t = Clock::now();
    onnx::OnnxModel model;
    bool export_ok = true;
    try {
        model = onnx::exportGraph(pending.graph);
    } catch (const backends::BackendError&) {
        export_ok = false;
    }
    stats.exportMs += msSince(t);
    ++stats.exports;
    t = Clock::now();
    const auto references = exec::executeBatched(pending.graph, pending.lanes);
    stats.refMs += msSince(t);
    for (size_t l = 0; l < pending.lanes.size(); ++l) {
        const auto& lane = pending.lanes[l];
        const bool valid = references[l].numericallyValid();
        ++stats.probeLanes;
        if (!export_ok) {
            ++stats.crashLanes;
            continue;
        }
        if (!valid)
            ++stats.nanSkip;
        else
            ++stats.comparable;
        if (!run_backends)
            continue;
        bool crashed = false;
        for (backends::Backend* backend : backend_list) {
            t = Clock::now();
            const auto run =
                backend->run(model, lane, backends::OptLevel::kO3);
            auto& slot = stats.backendRuns[backend->name()];
            slot.first += msSince(t);
            ++slot.second;
            crashed = crashed ||
                      run.status == backends::RunResult::Status::kCrash;
        }
        stats.crashLanes += crashed ? 1 : 0;
    }
}

/**
 * The iterations {shard, shard + count, ...} of a traced campaign, in
 * the order and with the capture steps of the thread runtime's worker
 * (backends built under the worker's collector, runOneIteration's
 * capture order), timing each step through its public entry point.
 */
void
tracedShard(const Workload& workload, const fuzz::ParallelCampaignConfig& config,
            const std::shared_ptr<const fuzz::MutationPool>& pool,
            bool run_backends, size_t shard_index, size_t shard_count,
            LayerStats& stats, fuzz::ShardResult& shard)
{
    PendingCase pending;
    const auto options = fuzzerOptions(workload);
    auto make_fuzzer = [&](uint64_t seed) -> std::unique_ptr<fuzz::Fuzzer> {
        auto inner =
            std::make_unique<TracedNNSmith>(options, seed, stats, pending);
        if (pool == nullptr)
            return inner;
        return std::make_unique<fuzz::CorpusGuidedFuzzer>(std::move(inner),
                                                          pool, seed);
    };

    auto t = Clock::now();
    coverage::CoverageCollector collector;
    auto owned = config.backendFactory();
    std::vector<backends::Backend*> list;
    for (auto& backend : owned)
        list.push_back(backend.get());
    collector.take();
    stats.backendMs += msSince(t);

    shard.shard = static_cast<int>(shard_index);
    const auto loop_start = Clock::now();
    double probe_ms = 0;
    for (size_t index = shard_index; index < config.campaign.maxIterations;
         index += shard_count) {
        auto fuzzer = make_fuzzer(
            fuzz::deriveIterationSeed(config.masterSeed, index));
        pending.set = false;
        const size_t inner_before = stats.innerCalls;
        t = Clock::now();
        fuzz::IterationOutcome outcome = fuzzer->iterate(list);
        stats.outerMs += msSince(t);
        stats.mutatedIters += stats.innerCalls == inner_before ? 1 : 0;

        fuzz::ShardResult::IterationRecord record;
        record.index = index;
        record.cost = outcome.cost;
        record.produced = outcome.produced;
        record.instanceKeys = std::move(outcome.instanceKeys);
        t = Clock::now();
        const auto ids = collector.take();
        stats.coverageMs += msSince(t);
        stats.coverageIds += ids.size();
        t = Clock::now();
        record.hits = fuzz::wire::hitsToWire(ids);
        stats.wireMs += msSince(t);
        if (!outcome.bugs.empty()) {
            if (config.campaign.minimize) {
                t = Clock::now();
                reduce::minimizeBugs(outcome.bugs, list);
                stats.reduceMs += msSince(t);
                stats.reduceBugs += outcome.bugs.size();
                for (const auto& bug : outcome.bugs)
                    stats.reduceMinimized += bug.minimized ? 1 : 0;
            }
            t = Clock::now();
            backends::DefectRegistry::TraceScope trace_scope;
            for (const auto& bug : outcome.bugs)
                record.bugs.push_back(fuzz::wire::encodeBug(bug));
            collector.take();
            stats.wireMs += msSince(t);
        }
        shard.records.push_back(std::move(record));
        ++stats.iterations;

        if (pending.set) {
            t = Clock::now();
            probeCase(pending, list, run_backends, stats);
            collector.take(); // the probe's hits are not the campaign's
            probe_ms += msSince(t);
        }
    }
    stats.loopMs += msSince(loop_start) - probe_ms;
    stats.probeMs += probe_ms;
}

/**
 * A traced campaign: corpus replay on a scratch collector, @p threads
 * traced shards, then the merge — runParallelCampaign's steps. With
 * one thread every layer's time is meaningful; the lane-count pass of
 * --trace 0 uses more threads and reads only the lane counts.
 */
fuzz::CampaignResult
tracedCampaign(const Workload& workload,
               const fuzz::ParallelCampaignConfig& config,
               const std::shared_ptr<const fuzz::MutationPool>& pool,
               bool run_backends, size_t threads, LayerStats& stats)
{
    coverage::CoverageRegistry::instance().resetHits();
    corpus::ReplayResult regressions;
    if (!config.campaign.corpusDir.empty()) {
        const auto t = Clock::now();
        coverage::CoverageCollector scratch;
        auto owned = config.backendFactory();
        std::vector<backends::Backend*> list;
        for (auto& backend : owned)
            list.push_back(backend.get());
        regressions = corpus::replayCorpus(config.campaign.corpusDir, list);
        corpus::writeRegressions(config.campaign.corpusDir, regressions);
        stats.replayMs += msSince(t);
        stats.replayStillFires = regressions.stillFires;
    }

    std::vector<fuzz::ShardResult> shards(threads);
    if (threads == 1) {
        tracedShard(workload, config, pool, run_backends, 0, 1, stats,
                    shards[0]);
    } else {
        std::vector<LayerStats> per_thread(threads);
        std::vector<std::exception_ptr> errors(threads);
        std::vector<std::thread> workers;
        for (size_t i = 0; i < threads; ++i) {
            workers.emplace_back([&, i] {
                try {
                    tracedShard(workload, config, pool, run_backends, i,
                                threads, per_thread[i], shards[i]);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
        for (auto& worker : workers)
            worker.join();
        for (const auto& error : errors)
            if (error)
                std::rethrow_exception(error);
        for (const auto& part : per_thread) {
            stats.probeLanes += part.probeLanes;
            stats.comparable += part.comparable;
            stats.nanSkip += part.nanSkip;
            stats.crashLanes += part.crashLanes;
        }
    }

    const auto t = Clock::now();
    const std::string name = workload.guided ? "NNSmith+corpus" : "NNSmith";
    auto merged = fuzz::mergeShardResults(shards, config.campaign, name);
    stats.mergeMs += msSince(t);
    merged.regressions = std::move(regressions);
    for (const auto& shard : shards)
        stats.wireBytes += fuzz::wire::encodeRecords(shard.records).size();
    ++stats.runs;
    return merged;
}

// ---------------------------------------------------------------------------
// Result identity and output checks
// ---------------------------------------------------------------------------

/** One 64-bit FNV-1a hash per compared field of a campaign result. */
using Digest = std::vector<std::pair<std::string, uint64_t>>;

uint64_t
fnv1a(const std::string& text)
{
    uint64_t hash = 1469598103934665603ull;
    for (const unsigned char c : text)
        hash = (hash ^ c) * 1099511628211ull;
    return hash;
}

/**
 * The whole result's identity, field by field (bug bodies via their
 * canonical wire form), so a timed segment need not be kept whole to be
 * compared with a later re-run.
 */
Digest
digestOf(const fuzz::CampaignResult& result)
{
    coverage::CoverageCollector scratch; // encodeBug re-exports models
    backends::DefectRegistry::TraceScope trace_scope;
    auto number = [](double value) {
        char buffer[32];
        std::snprintf(buffer, sizeof buffer, "%.17g ", value);
        return std::string(buffer);
    };
    auto branches = [](const coverage::CoverageMap& map) {
        std::string text;
        for (const auto id : map.branches())
            text += std::to_string(id) + " ";
        return text;
    };
    auto lines = [](const auto& strings) {
        std::string text;
        for (const auto& item : strings)
            text += item + "\n";
        return text;
    };
    std::string series;
    for (const auto& point : result.series)
        series += number(point.minutes) + std::to_string(point.iterations) +
                  " " + std::to_string(point.coverageAll) + " " +
                  std::to_string(point.coveragePass) + "\n";
    std::string bugs;
    for (const auto& [key, bug] : result.bugs)
        bugs += key + "\n" + fuzz::wire::encodeBug(bug) + "\n";
    return {
        {"fuzzer name", fnv1a(result.fuzzer)},
        {"iteration counts", fnv1a(std::to_string(result.iterations) + " " +
                                   std::to_string(result.produced))},
        {"virtual time", fnv1a(std::to_string(result.virtualTime) + " " +
                               std::to_string(result.activeTime))},
        {"coverage", fnv1a(branches(result.coverAll) + "|" +
                           branches(result.coverPass))},
        {"instance keys", fnv1a(lines(result.instanceKeys))},
        {"defects found", fnv1a(lines(result.defectsFound))},
        {"series", fnv1a(series)},
        {"bugs", fnv1a(bugs)},
        {"regressions",
         fnv1a(corpus::renderRegressions(result.regressions))},
    };
}

/** The first field in which two digests differ, or "" if none. */
std::string
digestDifference(const Digest& a, const Digest& b)
{
    for (size_t i = 0; i < a.size() && i < b.size(); ++i)
        if (a[i] != b[i])
            return a[i].first;
    return a.size() == b.size() ? "" : "field count";
}

/** The ground-truth output checks; returns the failures. */
std::vector<std::string>
checkResult(const Workload& workload, const fuzz::CampaignResult& result,
            size_t iterations)
{
    std::vector<std::string> failures;
    if (result.iterations != iterations)
        failures.push_back("ran " + std::to_string(result.iterations) +
                           " of " + std::to_string(iterations) +
                           " iterations");
    if (!result.workerFaults.empty())
        failures.push_back(std::to_string(result.workerFaults.size()) +
                           " worker faults");
    const auto& registry = backends::DefectRegistry::instance();
    for (const auto& [key, bug] : result.bugs) {
        const bool seeded = std::any_of(
            bug.defects.begin(), bug.defects.end(),
            [&](const std::string& id) { return registry.find(id); });
        if (!seeded)
            failures.push_back("bug " + key + " names no seeded defect");
    }
    if (workload.guided) {
        coverage::CoverageCollector scratch;
        auto owned = backendFactory(workload)();
        std::vector<backends::Backend*> list;
        for (auto& backend : owned)
            list.push_back(backend.get());
        for (const auto& [key, bug] : result.bugs) {
            if (bug.minimized && !reduce::reproStillFires(bug, list))
                failures.push_back("minimized repro of " + key +
                                   " no longer fires");
        }
        const auto& replay = result.regressions;
        if (replay.total() == 0 || replay.stillFires != replay.total())
            failures.push_back(
                "corpus replay: " + std::to_string(replay.stillFires) + "/" +
                std::to_string(replay.total()) + " still fire");
    }
    return failures;
}

/** Deliberately broken result for the self-test (--break-check). */
void
breakResult(const std::string& how, fuzz::CampaignResult& result)
{
    if (how == "orphan-bug") {
        fuzz::BugRecord bug;
        bug.dedupKey = "Injected|crash|no-defect";
        bug.backend = "Injected";
        bug.kind = "crash";
        result.bugs.emplace(bug.dedupKey, bug);
    }
}

/**
 * Mean of minimizedSize / originalSize over deduplicated bugs; an
 * unminimized repro keeps its full size (ratio 1). The mean, because
 * the median of these small-integer ratios jumps between a few values
 * (0.4 or 0.5 across seeds).
 */
double
reproSizeRatio(const std::map<std::string, fuzz::BugRecord>& bugs)
{
    double sum = 0;
    for (const auto& [key, bug] : bugs)
        sum += bug.minimized && bug.originalSize > 0
                   ? static_cast<double>(bug.minimizedSize) /
                         static_cast<double>(bug.originalSize)
                   : 1.0;
    return bugs.empty() ? 1.0 : sum / static_cast<double>(bugs.size());
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

int
report(const std::vector<std::string>& failures, size_t attempted,
       size_t failed, const std::vector<Metric>& metrics)
{
    for (const auto& metric : metrics)
        std::printf("# %-28s %.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    for (const auto& failure : failures)
        std::printf("# CHECK FAILED: %s\n", failure.c_str());
    std::string json = "{\"correct\": ";
    json += failures.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buffer[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buffer, sizeof buffer, "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                buffer + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failures.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Set-up: a zero-iteration campaign of the workload's own config
// ---------------------------------------------------------------------------

std::shared_ptr<const fuzz::MutationPool>
loadPool(const Workload& workload, const std::string& dir)
{
    if (!workload.guided)
        return nullptr;
    return std::make_shared<const fuzz::MutationPool>(
        fuzz::MutationPool::fromCorpusDir(dir));
}

/**
 * The workload's real fuzzer. For guided-reduce this is the wrapper
 * runParallelCampaign builds under CampaignConfig::corpusGuided —
 * CorpusGuidedFuzzer(inner(seed), pool, seed) — built here so that its
 * iterate() can be timed and its pool parse counted as set-up.
 */
fuzz::FuzzerFactory
realFactory(const Workload& workload,
            std::shared_ptr<const fuzz::MutationPool> pool,
            LatencyFuzzer::Sink* sink)
{
    const auto options = fuzzerOptions(workload);
    return [options, pool, sink](uint64_t seed)
               -> std::unique_ptr<fuzz::Fuzzer> {
        std::unique_ptr<fuzz::Fuzzer> fuzzer =
            std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
        if (pool != nullptr)
            fuzzer = std::make_unique<fuzz::CorpusGuidedFuzzer>(
                std::move(fuzzer), pool, seed);
        if (sink != nullptr)
            fuzzer = std::make_unique<LatencyFuzzer>(std::move(fuzzer), *sink);
        return fuzzer;
    };
}

/** Wall and CPU time of one set-up, in ms. */
struct SetupTime {
    double wallMs;
    double cpuMs;
};

/**
 * One set-up: everything before the first iteration can run. No other
 * thread of the process runs meanwhile, so the process CPU time is the
 * set-up's own.
 */
SetupTime
setupOnce(const Workload& workload, const Options& options)
{
    CorpusCopy copy(options, workload.guided);
    auto config = campaignConfig(workload, options.seed, 0, copy.dir());
    const double cpu_start = processCpuMs();
    const auto start = Clock::now();
    config.fuzzerFactory =
        realFactory(workload, loadPool(workload, copy.dir()), nullptr);
    fuzz::runParallelCampaign(config);
    return {msSince(start), processCpuMs() - cpu_start};
}

/**
 * Append @p count set-up samples, in CPU ms. One set-up takes a fraction
 * of a millisecond to a few. Its wall time is then mostly the wait for
 * the shard threads to wake, which varied threefold between samples on
 * a loaded host, while its CPU time (the work set-up does) held within
 * a few percent. Each sample is the mean CPU time of the workload's
 * setupReps back-to-back set-ups (the corpus copies between them
 * untimed), and callers report the median of the samples.
 */
void
sampleSetup(const Workload& workload, const Options& options, size_t count,
            std::vector<double>& samples)
{
    for (size_t s = 0; s < count; ++s) {
        double total = 0;
        for (size_t r = 0; r < workload.setupReps; ++r)
            total += setupOnce(workload, options).cpuMs;
        samples.push_back(total / static_cast<double>(workload.setupReps));
    }
}

/** Segment @p index's master seed: segments are distinct campaigns. */
uint64_t
segmentSeed(uint64_t seed, size_t index)
{
    return fuzz::deriveIterationSeed(seed, index);
}

/**
 * Drop what neither the output checks nor the counts read (the series,
 * instance keys and pass coverage), once the result has been digested.
 */
void
slim(fuzz::CampaignResult& result)
{
    result.series = {};
    result.instanceKeys = {};
    result.coverPass = {};
}

/** Union over segments of what a campaign found. */
struct Found {
    std::map<std::string, fuzz::BugRecord> bugs;
    std::set<std::string> defects;
    coverage::CoverageMap coverage;

    void add(const fuzz::CampaignResult& result)
    {
        for (const auto& [key, bug] : result.bugs)
            bugs.emplace(key, bug);
        defects.insert(result.defectsFound.begin(), result.defectsFound.end());
        coverage = coverage.unionWith(result.coverAll);
    }
};

/** Iterations of @p result that produced no case or were lost to faults. */
size_t
failedIterations(const fuzz::CampaignResult& result, size_t iterations)
{
    return iterations - std::min(iterations, result.produced) +
           result.workerFaults.size();
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

int
runEndToEnd(const Workload& workload, const Options& options,
            size_t iterations)
{
    // Set-up is sampled after the timed segments, at two points. A
    // process that has run no campaign yet sets up about twice as slowly
    // (first-use costs such as a still-growing heap), and mixing the two
    // states made the median jump between runs.
    constexpr size_t kSetupSamples = 8; // per sampling point
    const auto run_start = Clock::now();
    std::vector<double> setup_ms;

    std::shared_ptr<const fuzz::MutationPool> pool;
    {
        CorpusCopy copy(options, workload.guided);
        pool = loadPool(workload, copy.dir());
    }

    // Timed section: a fixed list of campaign segments. Between two
    // timed segments (untimed) the result is digested and slimmed.
    const size_t segment_count = segmentCount(options.seconds);
    std::vector<double> wall_ms;
    std::vector<Digest> digests;
    std::vector<fuzz::CampaignResult> results;
    LatencyFuzzer::Sink sink;
    const auto timed_start = Clock::now();
    for (size_t r = 0; r < segment_count; ++r) {
        CorpusCopy copy(options, workload.guided);
        auto config = campaignConfig(workload, segmentSeed(options.seed, r),
                                     iterations, copy.dir());
        config.fuzzerFactory = realFactory(workload, pool, &sink);
        const auto start = Clock::now();
        auto result = fuzz::runParallelCampaign(config);
        wall_ms.push_back(msSince(start));
        digests.push_back(digestOf(result));
        slim(result);
        results.push_back(std::move(result));
    }
    const double peak_rss_mb = peakRssMb();
    const double timed_s = msSince(timed_start) / 1000.0;
    sampleSetup(workload, options, kSetupSamples, setup_ms);
    const auto counted_start = Clock::now();

    // Untimed lane-count pass: the traced loop re-runs every segment on
    // several threads and observes every fresh lane. It must reproduce
    // each of them, or its counts describe another campaign.
    std::vector<std::string> failures;
    const size_t threads =
        std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
    LayerStats counts;
    for (size_t r = 0; r < segment_count; ++r) {
        CorpusCopy copy(options, workload.guided);
        auto config = campaignConfig(workload, segmentSeed(options.seed, r),
                                     iterations, copy.dir());
        const auto traced = tracedCampaign(workload, config, pool,
                                           /*run_backends=*/false, threads,
                                           counts);
        const auto diff = digestDifference(digests[r], digestOf(traced));
        if (!diff.empty())
            failures.push_back("lane-count pass no longer reproduces "
                               "segment " + std::to_string(r) + " (" + diff +
                               "); update the benchmark's traced fuzzer");
    }
    const double counted_s = msSince(counted_start) / 1000.0;
    sampleSetup(workload, options, kSetupSamples, setup_ms);

    if (!options.breakCheck.empty())
        breakResult(options.breakCheck, results[0]);
    size_t failed = 0;
    Found found;
    for (const auto& result : results) {
        for (auto& failure : checkResult(workload, result, iterations))
            failures.push_back(std::move(failure));
        failed += failedIterations(result, iterations);
        found.add(result);
    }

    // Iterations per wall second over all timed segments together: every
    // segment's time counts, so a run's figure averages the host's
    // second-to-second swings instead of picking one segment.
    double total_ms = 0;
    std::string rate_text;
    for (const double ms : wall_ms) {
        total_ms += ms;
        rate_text += " " + std::to_string(static_cast<double>(iterations) /
                                          (ms / 1000.0));
    }
    const double timed_iterations =
        static_cast<double>(segment_count * iterations);
    const double iters_per_s = timed_iterations / (total_ms / 1000.0);
    std::printf("# iterations/s per segment:%s\n", rate_text.c_str());
    auto& latency = sink.ms;
    std::sort(latency.begin(), latency.end());
    const double tail_p = tailPercentile(latency.size());
    std::printf("# %zu segments of %zu iterations; iteration latency over "
                "%zu calls: p10 %.3g p50 %.3g p90 %.3g, tail = p%g\n",
                segment_count, iterations, latency.size(),
                percentile(latency, 10.0), percentile(latency, 50.0),
                percentile(latency, 90.0), tail_p);
    std::printf("# deduplicated bug keys %zu, seeded defects found %zu\n",
                found.bugs.size(), found.defects.size());
    std::printf("# run %.1f s: timed segments %.1f s, lane-count pass %.1f s\n",
                msSince(run_start) / 1000.0, timed_s, counted_s);
    return report(
        failures, segment_count * iterations, failed,
        {
            {"iters_per_s", iters_per_s, "1/s"},
            {"comparable_cases_per_s",
             iters_per_s *
                 ratio(static_cast<double>(counts.comparable),
                       timed_iterations),
             "1/s"},
            {"iter_ms_p50", percentile(latency, 50.0), "ms"},
            {"iter_ms_tail", percentile(latency, tail_p), "ms"},
            {"valid_case_rate",
             ratio(static_cast<double>(counts.comparable),
                   static_cast<double>(counts.probeLanes)),
             "ratio"},
            {"bugs_unique", static_cast<double>(found.defects.size()),
             "count"},
            {"coverage_branches", static_cast<double>(found.coverage.count()),
             "count"},
            {"repro_size_ratio", reproSizeRatio(found.bugs), "ratio"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"setup_s", median(setup_ms) / 1000.0, "s"},
        });
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

int
runLayers(const Workload& workload, const Options& options,
          size_t iterations)
{
    const double setup_cold_ms = setupOnce(workload, options).wallMs;

    // Over the first half of the segments, one untraced and one traced
    // single-shard run each; a traced run takes about twice as long as
    // an untraced one, so this keeps the run near --seconds.
    LayerStats stats;
    double untraced_ms = 0, traced_ms = 0;
    std::vector<std::string> failures;
    size_t failed = 0;
    const size_t segment_count =
        (segmentCount(options.seconds) + 1) / 2;
    for (size_t r = 0; r < segment_count; ++r) {
        const uint64_t seed = segmentSeed(options.seed, r);
        fuzz::CampaignResult plain;
        {
            CorpusCopy copy(options, workload.guided);
            auto config =
                campaignConfig(workload, seed, iterations, copy.dir());
            config.shards = 1;
            config.fuzzerFactory = realFactory(
                workload, loadPool(workload, copy.dir()), nullptr);
            const auto start = Clock::now();
            plain = fuzz::runParallelCampaign(config);
            untraced_ms += msSince(start);
        }
        CorpusCopy copy(options, workload.guided);
        auto config = campaignConfig(workload, seed, iterations, copy.dir());
        config.shards = 1;
        auto t = Clock::now();
        const auto pool = loadPool(workload, copy.dir());
        stats.poolMs += msSince(t);
        const double before =
            stats.replayMs + stats.backendMs + stats.loopMs + stats.mergeMs;
        const auto traced = tracedCampaign(workload, config, pool,
                                           /*run_backends=*/true,
                                           /*threads=*/1, stats);
        traced_ms += stats.replayMs + stats.backendMs + stats.loopMs +
                     stats.mergeMs - before;
        failed += failedIterations(plain, iterations);
        const auto diff =
            digestDifference(digestOf(plain), digestOf(traced));
        if (!diff.empty())
            std::fprintf(stderr,
                         "campaign_bench: WARNING: the traced run no longer "
                         "reproduces the untraced campaign (%s); the "
                         "per-layer numbers are stale\n",
                         diff.c_str());
        if (r == 0 && !options.breakCheck.empty())
            breakResult(options.breakCheck, plain);
        for (auto& failure : checkResult(workload, plain, iterations))
            failures.push_back(std::move(failure));
    }

    const double runs = static_cast<double>(stats.runs);
    const double wall = stats.loopMs + stats.mergeMs;
    const double mutate_ms = stats.outerMs - stats.innerMs;
    const double fabric_ms = wall - stats.genMs - stats.searchMs -
                             stats.caseMs - mutate_ms - stats.reduceMs;
    const double iters = static_cast<double>(stats.iterations);
    auto per = [](double total, size_t count) {
        return ratio(total, static_cast<double>(count));
    };
    auto backend_ms = [&](const std::string& name) {
        const auto it = stats.backendRuns.find(name);
        return it == stats.backendRuns.end()
                   ? 0.0
                   : per(it->second.first, it->second.second);
    };
    std::printf("# traced runs: %zu, wall %.1f ms, probe %.1f ms excluded\n",
                stats.runs, wall, stats.probeMs);
    return report(
        failures, segment_count * iterations, failed,
        {
            {"gen.ms_per_model", per(stats.genMs, stats.genCalls), "ms"},
            {"gen.share", ratio(stats.genMs, wall), "ratio"},
            {"gen.queries_per_model", per(stats.queries, stats.genCalls),
             "count"},
            {"gen.rejected_per_model", per(stats.rejected, stats.genCalls),
             "count"},
            {"gen.fail_ratio", per(stats.genFailed, stats.genCalls), "ratio"},
            {"search.ms_per_call", per(stats.searchMs, stats.searchCalls),
             "ms"},
            {"search.share", ratio(stats.searchMs, wall), "ratio"},
            {"search.success_ratio", per(stats.searchOk, stats.searchCalls),
             "ratio"},
            {"search.iters_per_call",
             per(stats.searchIters, stats.searchCalls), "count"},
            {"case.ms_per_lane", per(stats.caseMs, stats.lanes), "ms"},
            {"case.share", ratio(stats.caseMs, wall), "ratio"},
            {"export.ms_per_case", per(stats.exportMs, stats.exports), "ms"},
            {"backend.OrtLite.ms_per_run", backend_ms("OrtLite"), "ms"},
            {"backend.TVMLite.ms_per_run", backend_ms("TVMLite"), "ms"},
            {"backend.TrtLite.ms_per_run", backend_ms("TrtLite"), "ms"},
            {"reference.ms_per_lane", per(stats.refMs, stats.probeLanes), "ms"},
            {"oracle.comparable_ratio", per(stats.comparable, stats.probeLanes),
             "ratio"},
            {"oracle.nan_skip_ratio", per(stats.nanSkip, stats.probeLanes),
             "ratio"},
            {"oracle.crash_ratio", per(stats.crashLanes, stats.probeLanes),
             "ratio"},
            {"fabric.ms_per_iter", ratio(fabric_ms, iters), "ms"},
            {"fabric.share", ratio(fabric_ms, wall), "ratio"},
            {"coverage.ids_per_iter", per(stats.coverageIds, stats.iterations),
             "count"},
            {"wire.bytes_per_iter", per(stats.wireBytes, stats.iterations),
             "bytes"},
            {"merge.ms", ratio(stats.mergeMs, runs), "ms"},
            {"mutate.ms_per_iter", per(mutate_ms, stats.mutatedIters), "ms"},
            {"mutate.iter_ratio", per(stats.mutatedIters, stats.iterations),
             "ratio"},
            {"mutate.share", ratio(mutate_ms, wall), "ratio"},
            {"reduce.ms_per_bug", per(stats.reduceMs, stats.reduceBugs), "ms"},
            {"reduce.share", ratio(stats.reduceMs, wall), "ratio"},
            {"reduce.minimized_ratio",
             per(stats.reduceMinimized, stats.reduceBugs), "ratio"},
            {"replay.ms", ratio(stats.replayMs, runs), "ms"},
            {"replay.still_fires", static_cast<double>(stats.replayStillFires),
             "count"},
            {"pool_load.ms", ratio(stats.poolMs, runs), "ms"},
            {"setup.cold_ms", setup_cold_ms, "ms"},
            {"trace.overhead_ratio", ratio(traced_ms, untraced_ms), "ratio"},
        });
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseArgs(argc, argv);
    const auto& all = workloads();
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto& w) {
        return w.name == options.workload;
    });
    if (it == all.end())
        usage("unknown --workload '" + options.workload +
              "' (fresh-ort, batch-trio, guided-reduce)");
    const Workload& workload = *it;
    if (workload.guided &&
        !fs::exists(fs::path(options.corpus) / "index.tsv"))
        usage("no corpus index at " + options.corpus);
    const size_t iterations = options.iters ? options.iters
                                            : workload.iterations;

    std::printf("# workload %s seed %llu iterations %zu shards %d batch %zu "
                "trace %d\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(options.seed), iterations,
                workload.shards, workload.batch, options.trace);
    std::printf("# solver %s hardware_threads %u commit %s\n",
                solver::haveZ3() ? "z3" : "native",
                std::thread::hardware_concurrency(), options.commit.c_str());
    return options.trace == 0 ? runEndToEnd(workload, options, iterations)
                              : runLayers(workload, options, iterations);
}
