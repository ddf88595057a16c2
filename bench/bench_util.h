/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every bench accepts:
 *   --seed N        campaign seed (default 2023)
 *   --iters N       per-fuzzer real-iteration cap (each driver passes
 *                   its own default to parseArgs)
 *   --minutes N     virtual budget in minutes (default 240, as in the
 *                   paper's 4-hour runs)
 *   --shards N      run campaigns sharded over N workers via
 *                   fuzz/parallel_campaign.h (default 1; the merged
 *                   results are byte-identical for any N, so --shards
 *                   only changes wall-clock time; Tzer is stateful
 *                   across iterations and always runs as one shard)
 *   --workers N     alias of --shards (the campaign-fabric spelling)
 *   --worker-mode M how the workers execute (fuzz/worker_runtime.h):
 *                   "thread" (default; std::thread per shard) or
 *                   "process" (forked, crash-isolated worker processes
 *                   streaming wire-format records over pipes). The
 *                   merged results are byte-identical either way.
 *   --pass-fuzz     run every backend's optimizer with randomized pass
 *                   sequences instead of the fixed default pipeline:
 *                   TVMLite draws TIR sequences (tirlite/tir_passes.h),
 *                   OrtLite/TrtLite draw graph-pass sequences
 *                   (backends/graph_pass.h). Each sequence is a pure
 *                   function of (campaign seed, test case), so
 *                   sharding stays byte-identical.
 *   --minimize      delta-debug every flagged case to a minimal repro
 *                   before dedup (reduce/reducer.h); dedup keys become
 *                   minimized fingerprints. Off by default so the
 *                   committed BENCH_*.json records stay comparable.
 *   --report-dir D  write one minimized-repro report per deduped bug
 *                   into directory D (reduce/report.h)
 *   --corpus D      replay the regression corpus in directory D (a
 *                   --report-dir tree) before fresh fuzzing: every
 *                   known fingerprint is re-checked and classified
 *                   still-fires / changed / fixed into D/regressions.tsv
 *                   (corpus/replay.h). Replay stays out of coverage
 *                   accounting, so it composes with --shards.
 *   --corpus-guided mutate the replayed corpus instead of only
 *                   re-checking it (fuzz/mutator.h; requires --corpus):
 *                   each iteration chooses, from its own derived
 *                   iteration seed, between fresh sampling and
 *                   mutating a corpus repro (graph edits or pass-
 *                   sequence splice/truncate/reorder). The pool is
 *                   immutable after load, so merged results stay
 *                   byte-identical across shard counts and worker
 *                   modes.
 *   --batch N       fuzz cases per NNSmith iteration: each generated
 *                   graph is executed on N independent input sets
 *                   through the batched executor (exec/batched.h),
 *                   amortizing generation/solving across lanes
 *                   (default 1 = off). Per-lane outcomes are
 *                   bit-identical to sequential runs, so merged
 *                   results stay byte-identical across shard counts
 *                   and worker modes at any fixed N (bench_identity
 *                   gates this). Baseline fuzzers ignore the flag.
 *   --out FILE      machine-readable bench output (the BENCH_*.json
 *                   files); consumed by the individual drivers
 *   --trace-out F   write chrome-trace-compatible JSONL phase spans
 *                   (gen / exec:<backend> / oracle / minimize /
 *                   replay) to F (obs/trace.h); load in Perfetto by
 *                   wrapping the lines in [...]
 *   --metrics-out F enable the metrics registry (obs/metrics.h) and
 *                   dump the final merged snapshot — iterations,
 *                   per-phase timing histograms, oracle comparisons,
 *                   mutation outcomes, ddmin budget, worker respawns —
 *                   to F as canonical JSON at exit
 *   --progress      live throttled progress line on stderr (iters/sec,
 *                   hits, bugs, per-worker liveness with stalled
 *                   workers flagged distinctly from crashed ones;
 *                   obs/progress.h)
 *
 * All telemetry flags are inert by contract: merged campaign results,
 * report trees and regressions.tsv are byte-identical with them on or
 * off (DESIGN.md "Telemetry"). Unknown flags are rejected with a
 * one-line error (exit code 2) instead of being silently ignored.
 *
 * Virtual time: iteration costs follow the calibrated CostModel in
 * fuzz/fuzzer.h, so per-iteration cost *ratios* (LEMON ~100x slower,
 * TVM compiles slower than ORT) match §5.2. Real iterations are capped
 * because substrate coverage converges quickly; once the cap is hit
 * the series holds its converged value to the end of the virtual
 * window (DESIGN.md "Virtual time and the CostModel").
 */
#ifndef NNSMITH_BENCH_BENCH_UTIL_H
#define NNSMITH_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/graphfuzzer.h"
#include "baselines/lemon.h"
#include "baselines/tzer.h"
#include "fuzz/campaign.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/pass_fuzzer.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace nnsmith::bench {

using Clock = std::chrono::steady_clock;

/** Wall-clock seconds since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Parsed common CLI options. */
struct BenchOptions {
    uint64_t seed = 2023;
    size_t iters = 600;     ///< --iters, else the driver's default
    int minutes = 240;
    int shards = 1;
    fuzz::WorkerMode workerMode = fuzz::WorkerMode::kThread;
    bool passFuzz = false;
    bool minimize = false;  ///< ddmin flagged cases before dedup
    std::string reportDir;  ///< write minimized repro reports here
    std::string corpusDir;  ///< replay this regression corpus first
    bool corpusGuided = false; ///< mutate corpus entries (fuzz/mutator.h)
    size_t batch = 1;       ///< --batch: NNSmith input lanes per graph
    std::string outPath;    ///< --out: BENCH_*.json destination
    std::string traceOut;   ///< --trace-out: phase-span JSONL sink
    std::string metricsOut; ///< --metrics-out: final metrics snapshot
    bool progress = false;  ///< --progress: live stderr progress line
};

/**
 * Strict parse: an unknown flag or a value-taking flag at the end of
 * the line throws FatalError instead of being silently ignored — a
 * mistyped `--metrics-outt` must not turn a telemetry run into a
 * silent no-telemetry run. Drivers go through parseArgs (below), which
 * turns the throw into a one-line error and exit(2).
 */
inline BenchOptions
parseArgsOrThrow(int argc, char** argv, size_t default_iters = 600)
{
    BenchOptions options;
    options.iters = default_iters;
    for (int i = 1; i < argc; ++i) {
        auto want = [&](const char* flag) {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc)
                fatal(std::string(flag) + " requires a value");
            return true;
        };
        if (want("--seed"))
            options.seed = std::stoull(argv[++i]);
        else if (want("--iters"))
            options.iters = std::stoull(argv[++i]);
        else if (want("--minutes"))
            options.minutes = std::stoi(argv[++i]);
        else if (want("--shards") || want("--workers"))
            options.shards = std::max(1, std::stoi(argv[++i]));
        else if (want("--worker-mode")) {
            const std::string mode = argv[++i];
            if (mode == "thread")
                options.workerMode = fuzz::WorkerMode::kThread;
            else if (mode == "process")
                options.workerMode = fuzz::WorkerMode::kProcess;
            else
                fatal("--worker-mode must be 'thread' or 'process', "
                      "got '" + mode + "'");
        } else if (std::strcmp(argv[i], "--pass-fuzz") == 0)
            options.passFuzz = true;
        else if (std::strcmp(argv[i], "--minimize") == 0)
            options.minimize = true;
        else if (want("--report-dir"))
            options.reportDir = argv[++i];
        else if (want("--corpus"))
            options.corpusDir = argv[++i];
        else if (std::strcmp(argv[i], "--corpus-guided") == 0)
            options.corpusGuided = true;
        else if (want("--batch"))
            options.batch =
                std::max<size_t>(1, std::stoull(argv[++i]));
        else if (want("--out"))
            options.outPath = argv[++i];
        else if (want("--trace-out"))
            options.traceOut = argv[++i];
        else if (want("--metrics-out"))
            options.metricsOut = argv[++i];
        else if (std::strcmp(argv[i], "--progress") == 0)
            options.progress = true;
        else
            fatal("unknown flag '" + std::string(argv[i]) +
                  "' (see the flag list in bench/bench_util.h)");
    }
    return options;
}

/** Where the atexit hook dumps the final metrics snapshot. */
inline std::string&
metricsOutPath()
{
    static std::string path;
    return path;
}

/**
 * Turn the telemetry flags on for this process. The metrics snapshot
 * is written (and the trace closed) from an atexit hook, so every
 * campaign driver gets `--metrics-out`/`--trace-out` behavior without
 * individual wiring — whatever path the binary exits through, the
 * merged snapshot of everything it recorded lands on disk.
 */
inline void
initTelemetry(const BenchOptions& options)
{
    if (!options.traceOut.empty())
        obs::traceOpen(options.traceOut);
    if (!options.metricsOut.empty()) {
        obs::setMetricsEnabled(true);
        metricsOutPath() = options.metricsOut;
    }
    if (options.progress)
        obs::setProgressRequested(true);
    if (!options.traceOut.empty() || !options.metricsOut.empty()) {
        std::atexit([] {
            if (!metricsOutPath().empty()) {
                std::ofstream out(metricsOutPath(), std::ios::binary);
                out << obs::metricsSnapshot().renderJson();
            }
            obs::traceClose();
        });
    }
}

/** Driver-facing parse: strict flags, telemetry initialized, errors
 *  reported as one line on stderr + exit(2). @p default_iters is the
 *  driver's --iters default (600 = the figure campaigns). */
inline BenchOptions
parseArgs(int argc, char** argv, size_t default_iters = 600)
{
    try {
        const BenchOptions options =
            parseArgsOrThrow(argc, argv, default_iters);
        initTelemetry(options);
        return options;
    } catch (const FatalError& error) {
        std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
        std::exit(2);
    }
}

/** A backend-under-test selector. */
struct SystemUnderTest {
    const char* label;      ///< "ONNXRuntime" / "TVM"
    const char* component;  ///< coverage prefix
    int backendIndex;       ///< index into makeAllBackends()
};

inline std::vector<SystemUnderTest>
coverageSystems()
{
    return {{"ONNXRuntime", "ortlite", 0}, {"TVM", "tvmlite", 1}};
}

/** Backend factory building one private instance of @p sut's backend;
 *  a nonzero @p pass_fuzz_seed puts every backend's optimizer in
 *  pass-fuzz mode (--pass-fuzz). */
inline fuzz::BackendFactory
sutBackends(const SystemUnderTest& sut, uint64_t pass_fuzz_seed = 0)
{
    return [index = static_cast<size_t>(sut.backendIndex),
            pass_fuzz_seed] {
        auto owned = difftest::makeAllBackends();
        if (pass_fuzz_seed != 0) {
            owned[0] = backends::makeOrtLite(pass_fuzz_seed);
            owned[1] = backends::makeTvmLite(pass_fuzz_seed);
            owned[2] = backends::makeTrtLite(pass_fuzz_seed);
        }
        std::vector<std::unique_ptr<backends::Backend>> picked;
        picked.push_back(std::move(owned[index]));
        return picked;
    };
}

/** NNSmith at the §5.1 default size (10 op nodes); @p search runs the
 *  gradient value search, @p batch / @p sweep are --batch's lanes. */
inline fuzz::FuzzerFactory
nnsmithFactory(bool search = true, size_t batch = 1, bool sweep = true)
{
    return [=](uint64_t seed) {
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 10;
        options.runValueSearch = search;
        options.batch = batch;
        options.batchSweep = sweep;
        return std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
    };
}

/** Make the standard iteration-independent fuzzer by name with
 *  figure-default options (Tzer is stateful: baselines::tzerFactory).
 *  @p batch only affects NNSmith (input lanes per generated graph);
 *  the baselines have no batched path and ignore it. */
inline std::unique_ptr<fuzz::Fuzzer>
makeFuzzer(const std::string& name, uint64_t seed, size_t batch = 1)
{
    if (name == "NNSmith")
        return nnsmithFactory(/*search=*/true, batch)(seed);
    if (name == "GraphFuzzer") {
        baselines::GraphFuzzerLite::Options options;
        options.targetOps = 10;
        return std::make_unique<baselines::GraphFuzzerLite>(options, seed);
    }
    if (name == "LEMON")
        return std::make_unique<baselines::LemonFuzzer>(seed);
    fatal("unknown fuzzer " + name);
}

/** A one-shard thread campaign of @p fuzzer against @p backends with
 *  the figure defaults: @p minutes of virtual time, @p iters real
 *  iterations, a coverage sample every 10 virtual minutes, coverage
 *  counted under @p component. Callers set the rest. */
inline fuzz::ParallelCampaignConfig
campaignConfig(uint64_t seed, size_t iters, const std::string& component,
               fuzz::FuzzerFactory fuzzer, fuzz::BackendFactory backends,
               int minutes = 240)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget =
        static_cast<VirtualMs>(minutes) * 60 * 1000;
    config.campaign.maxIterations = iters;
    config.campaign.coverageComponent = component;
    config.campaign.sampleEveryMinutes = 10;
    config.masterSeed = seed;
    config.fuzzerFactory = std::move(fuzzer);
    config.backendFactory = std::move(backends);
    return config;
}

/**
 * The heavy-tensor NNSmith workload of bench_kernels and
 * bench_pass_fuzz. 2x dimension caps with a floor of 16 pin every
 * generated tensor to the regime the typed kernels target (the solver
 * would otherwise prefer tiny dims, leaving the campaign
 * generation-bound). The native solver samples dims across the whole
 * allowed range (z3 returns corner models) and keeps generation cost
 * from masking execution cost. The op pool is the element-loop
 * families the kernel layer serves (linear per-element cost; Mod is
 * deliberately absent). The search is iteration-capped: a huge time
 * budget makes maxIterations the binding constraint, so per-iteration
 * work is deterministic and wall-clock time measures execution speed.
 */
inline fuzz::FuzzerFactory
heavyTensorFactory()
{
    fuzz::NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 10; // §5.1 default model size
    options.generator.dimCapScale = 2;
    options.generator.dimFloor = 16;
    options.generator.solverKind = solver::SolverKind::kNative;
    options.generator.opAllowlist = {
        "Add",      "Sub",       "Mul",       "Div",       "Pow",
        "Max",      "Min",       "Equal",     "Greater",   "Less",
        "And",      "Or",        "Xor",       "Relu",      "LeakyRelu",
        "Sigmoid",  "Tanh",      "Abs",       "Neg",       "Clip",
        "Softmax",  "Where",     "Cast",      "ReduceSum", "ReduceMean",
        "ReduceMax", "ReduceMin", "ReduceProd", "ArgMax",  "ArgMin"};
    options.search.timeBudgetMs = 1e12;
    options.search.maxIterations = 32;
    return [options](uint64_t seed) {
        return std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
    };
}

/** PassSequenceFuzzer over TIR (fuzz/pass_fuzzer.h). */
inline fuzz::FuzzerFactory
passSequenceFactory()
{
    return [](uint64_t seed) {
        return std::make_unique<fuzz::PassSequenceFuzzer>(seed);
    };
}

/** TIR pass-sequence campaigns interpret TIR themselves: no backend. */
inline std::vector<std::unique_ptr<backends::Backend>>
noBackends()
{
    return {};
}

/** The minimizing acceptance campaign of the corpus, reduce and
 *  identity benches: NNSmith (value search off; oracle quality is
 *  unaffected) against the difftest trio, writing reports to
 *  @p report_dir and replaying @p corpus_dir first, when given. */
inline fuzz::ParallelCampaignConfig
trioCampaign(uint64_t seed, size_t iters, const std::string& component,
             const std::string& report_dir,
             const std::string& corpus_dir = "", int shards = 1,
             fuzz::WorkerMode mode = fuzz::WorkerMode::kThread)
{
    auto config = campaignConfig(seed, iters, component,
                                 nnsmithFactory(/*search=*/false),
                                 difftest::makeAllBackends);
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    config.campaign.corpusDir = corpus_dir;
    config.shards = shards;
    config.workerMode = mode;
    return config;
}

/** trioCampaign's TIR counterpart: PassSequenceFuzzer, coverage under
 *  tvmlite, one shard. */
inline fuzz::ParallelCampaignConfig
sequenceCampaign(uint64_t seed, size_t iters, const std::string& report_dir,
                 const std::string& corpus_dir = "")
{
    auto config = campaignConfig(seed, iters, "tvmlite",
                                 passSequenceFactory(), noBackends);
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    config.campaign.corpusDir = corpus_dir;
    return config;
}

/** The graph-pass counterpart: PassSequenceFuzzer over the OrtLite
 *  and TrtLite registries (iteration seeds alternate between the two,
 *  so the corpus holds repros of both), coverage under ortlite, one
 *  shard. */
inline fuzz::ParallelCampaignConfig
graphSequenceCampaign(uint64_t seed, size_t iters,
                      const std::string& report_dir)
{
    auto config = campaignConfig(
        seed, iters, "ortlite",
        [](uint64_t iteration_seed) {
            fuzz::PassSequenceFuzzer::Options options;
            options.backend = iteration_seed % 2 == 0 ? "OrtLite"
                                                      : "TrtLite";
            return std::make_unique<fuzz::PassSequenceFuzzer>(
                iteration_seed, options);
        },
        [] {
            std::vector<std::unique_ptr<backends::Backend>> owned;
            for (const char* name : {"OrtLite", "TrtLite"})
                owned.push_back(backends::makeBackend(name));
            return owned;
        });
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    return config;
}

/** Run one fuzzer against one system under test on the campaign
 *  fabric. The figures are byte-identical for any shard count; Tzer
 *  keeps a mutation corpus across iterations, so it always runs as
 *  one in-order shard. */
inline fuzz::CampaignResult
runOne(const std::string& fuzzer_name, const SystemUnderTest& sut,
       const BenchOptions& options, size_t iter_cap)
{
    // Telemetry (metrics frames, progress aggregator) attaches inside
    // runParallelCampaign from the process-global flags initTelemetry
    // set — inert either way.
    fuzz::ParallelCampaignConfig parallel = campaignConfig(
        options.seed, iter_cap, sut.component,
        [fuzzer_name, batch = options.batch](uint64_t seed) {
            return makeFuzzer(fuzzer_name, seed, batch);
        },
        sutBackends(sut, options.passFuzz ? options.seed | 1 : 0),
        options.minutes);
    fuzz::CampaignConfig& config = parallel.campaign;
    config.minimize = options.minimize;
    config.reportDir = options.reportDir;
    config.corpusDir = options.corpusDir;
    config.corpusGuided = options.corpusGuided;
    parallel.shards = options.shards;
    parallel.workerMode = options.workerMode;
    if (fuzzer_name == "Tzer") {
        // Tzer fuzzes TIR programs, not graphs: it has no graph repros
        // to replay or mutate, so --corpus and --corpus-guided are
        // no-ops for it.
        parallel.shards = 1;
        parallel.fuzzerFactory = baselines::tzerFactory(options.seed);
        config.corpusDir.clear();
        config.corpusGuided = false;
    }
    return fuzz::runParallelCampaign(parallel);
}

/** Per-fuzzer iteration caps (LEMON's virtual cost bounds it anyway). */
inline size_t
iterCapFor(const std::string& fuzzer, size_t base)
{
    if (fuzzer == "LEMON")
        return base / 2;
    if (fuzzer == "Tzer")
        return base * 4; // TIR cases are much cheaper
    return base;
}

/** Print a coverage series table: one row per sample. */
inline void
printSeries(const char* figure, const char* system,
            const std::vector<fuzz::CampaignResult>& results,
            bool pass_only, bool by_iterations)
{
    std::printf("\n%s — %s (%s branch coverage)\n", figure, system,
                pass_only ? "pass-only" : "total");
    std::printf("%-12s", by_iterations ? "iteration" : "minute");
    for (const auto& r : results)
        std::printf("%16s", r.fuzzer.c_str());
    std::printf("\n");
    size_t rows = 0;
    for (const auto& r : results)
        rows = std::max(rows, r.series.size());
    for (size_t i = 0; i < rows; ++i) {
        bool printed_key = false;
        for (const auto& r : results) {
            const auto& s =
                r.series[std::min(i, r.series.size() - 1)];
            if (!printed_key) {
                if (by_iterations)
                    std::printf("%-12zu", s.iterations);
                else
                    std::printf("%-12.0f", s.minutes);
                printed_key = true;
            }
            std::printf("%16zu", pass_only ? s.coveragePass
                                           : s.coverageAll);
        }
        std::printf("\n");
    }
}

/** Print a 3-set Venn decomposition like the paper's Fig. 7. */
inline void
printVenn3(const char* title, const fuzz::CampaignResult& a,
           const fuzz::CampaignResult& b, const fuzz::CampaignResult& c)
{
    using coverage::CoverageMap;
    const CoverageMap& A = a.coverAll;
    const CoverageMap& B = b.coverAll;
    const CoverageMap& C = c.coverAll;
    std::printf("\n%s\n", title);
    std::printf("  %s total: %zu; %s total: %zu; %s total: %zu\n",
                a.fuzzer.c_str(), A.count(), b.fuzzer.c_str(), B.count(),
                c.fuzzer.c_str(), C.count());
    const auto only = [](const CoverageMap& x, const CoverageMap& y,
                         const CoverageMap& z) {
        return x.minus(y.unionWith(z)).count();
    };
    std::printf("  unique(%s)=%zu unique(%s)=%zu unique(%s)=%zu\n",
                a.fuzzer.c_str(), only(A, B, C), b.fuzzer.c_str(),
                only(B, A, C), c.fuzzer.c_str(), only(C, A, B));
    std::printf("  common(all three)=%zu\n",
                A.intersect(B).intersect(C).count());
}

} // namespace nnsmith::bench

#endif // NNSMITH_BENCH_BENCH_UTIL_H
