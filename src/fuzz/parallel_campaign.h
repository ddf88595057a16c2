/**
 * @file
 * Sharded parallel campaign orchestrator — the campaign fabric, the
 * one campaign driver.
 *
 * Runs one logical fuzzing campaign as N independent shards — on one
 * persistent std::thread per shard, or one forked worker process per
 * shard streaming results over pipes, under one round coordinator
 * (fuzz/worker_runtime.h) — and deterministically merges the shard
 * results back into a single CampaignResult. The merged result is a pure function of (master
 * seed, campaign config) — *independent of the shard count, the
 * worker mode and scheduling* — so `--workers 4 --worker-mode process`
 * produces byte-identical coverage sets, bug dedup keys, instance keys
 * and virtual-time series to a one-shard in-thread run while
 * saturating wall-clock cores. See DESIGN.md "Campaign fabric" for the full
 * model.
 *
 * How the invariance is achieved: the campaign is defined as a
 * sequence of *self-seeded* iterations. Iteration i draws everything
 * from deriveIterationSeed(masterSeed, i), so its behaviour depends on
 * nothing but the master seed and its own index. Shard j executes the
 * strided index set {i : i mod N == j} against its own backend
 * instances, capturing a per-iteration record (virtual cost, bugs,
 * instance keys, coverage-hit delta via coverage::CoverageCollector).
 * Records are captured directly in the *wire format* (fuzz/wire.h):
 * coverage hits as canonical site keys, bugs as rendered repro
 * documents — process-portable payloads that round-trip
 * byte-identically, so a record means the same thing whether it
 * crossed a pipe or stayed in memory. Merging replays the records in
 * global index order under the virtual budget and iteration cap;
 * speculatively executed records past the budget cutoff are
 * discarded. Execution proceeds in
 * synchronized rounds so that the speculation overshoot stays bounded.
 *
 * Sharding requires an iteration-independent fuzzer (NNSmith and the
 * generative baselines qualify). A mutation-based fuzzer that carries
 * state across iterations (Tzer) runs as one in-order shard: its
 * factory hands out handles to one shared fuzzer, which checks that
 * iteration seeds arrive in global order — true at shards = 1 in
 * either worker mode — and throws otherwise (baselines::tzerFactory).
 */
#ifndef NNSMITH_FUZZ_PARALLEL_CAMPAIGN_H
#define NNSMITH_FUZZ_PARALLEL_CAMPAIGN_H

#include <functional>
#include <memory>

#include "backends/backend.h"
#include "fuzz/campaign.h"

namespace nnsmith::obs {
class ProgressAggregator;
}

namespace nnsmith::fuzz {

/** Builds a fresh fuzzer for one iteration from its derived seed. */
using FuzzerFactory =
    std::function<std::unique_ptr<Fuzzer>(uint64_t seed)>;

/** Builds one shard's private backend instances. */
using BackendFactory =
    std::function<std::vector<std::unique_ptr<backends::Backend>>()>;

/**
 * Where shard workers execute (fuzz/worker_runtime.h).
 *
 * kThread: one persistent std::thread per shard in this process.
 * kProcess: one forked worker process per shard, streaming
 * wire-format records back over a pipe; a worker that dies mid-block
 * is respawned and its block re-run deterministically from the
 * iteration-seed stream, so a crashing test case cannot take the
 * campaign down with it. Both modes share one coordinator and one
 * fault policy; the merged result is identical.
 */
enum class WorkerMode { kThread, kProcess };

/** "thread" / "process" (the --worker-mode spellings). */
const char* workerModeName(WorkerMode mode);

/** Parameters of a sharded campaign. */
struct ParallelCampaignConfig {
    /** Budget, caps, coverage component and sampling cadence. */
    CampaignConfig campaign;

    /** Worker shard count (1 = every iteration in order on one
     *  worker, as a stateful fuzzer needs). */
    int shards = 1;

    /** Thread or process workers; the merged result is identical. */
    WorkerMode workerMode = WorkerMode::kThread;

    /** Seed every iteration seed is derived from. */
    uint64_t masterSeed = 2023;

    /**
     * Iterations each shard executes between budget checks. Larger
     * blocks amortize the round barrier; smaller blocks bound the
     * speculative overshoot past the virtual-budget cutoff (at most
     * shards * blockIterations iterations are executed and then
     * discarded by the merge). Purely a performance knob — the merged
     * result does not depend on it.
     */
    size_t blockIterations = 16;

    FuzzerFactory fuzzerFactory;
    BackendFactory backendFactory;

    /**
     * Live progress aggregation (obs/progress.h). When set, the
     * coordinator attaches it, feeds it per-round heartbeats and
     * liveness transitions (stalled / crashed / errored workers) and
     * finishes it after the last round. Workers send heartbeats (and
     * process workers their per-round metrics deltas) whenever this is
     * set or metrics are enabled (obs::metricsEnabled). Telemetry is inert by
     * contract (DESIGN.md "Telemetry"): the merged result is
     * byte-identical with it on or off — it only adds observation,
     * never behavior.
     */
    std::shared_ptr<obs::ProgressAggregator> progress;
};

/** One serialized coverage hit: canonical site key + pass tag. */
struct SiteHit {
    bool passOnly = false;
    std::string key;

    friend bool operator==(const SiteHit& a, const SiteHit& b)
    {
        return a.passOnly == b.passOnly && a.key == b.key;
    }
};

/** Everything one shard observed, keyed for deterministic merging. */
struct ShardResult {
    /** Shard index in [0, shards). */
    int shard = 0;

    /**
     * One executed iteration, in the coordinates of the *global*
     * campaign iteration sequence. Payloads are held in the canonical
     * wire format (fuzz/wire.h): coverage hits as site keys (not
     * process-local BranchIds), bugs as rendered repro documents.
     * Both worker modes produce exactly this; the merge consumes
     * nothing else, so records are process-portable by construction.
     */
    struct IterationRecord {
        size_t index = 0;       ///< global iteration index
        VirtualMs cost = 0;     ///< virtual cost charged
        bool produced = false;  ///< a case was generated & executed
        /** Wire-rendered bug documents (wire::encodeBug). */
        std::vector<std::string> bugs;
        std::vector<std::string> instanceKeys;
        /** Coverage-hit delta, sorted by site key (any component;
         *  filtered at merge). */
        std::vector<SiteHit> hits;
    };

    /** Records for indexes {i : i mod shards == shard}, ascending. */
    std::vector<IterationRecord> records;

    /** Fabric incidents this shard survived (crashes, error frames,
     *  stalls). Telemetry only — never consumed by the merge. */
    std::vector<WorkerFault> faults;
};

/**
 * Deterministic per-iteration seed stream (SplitMix64 over the master
 * seed and the global iteration index).
 */
uint64_t deriveIterationSeed(uint64_t master_seed, uint64_t index);

/**
 * Merge shard results into one CampaignResult by replaying the
 * iteration records in global index order under @p config's virtual
 * budget, iteration cap and sampling cadence. Consumes only the wire format: hit keys are interned into this
 * process's coverage registry and bug documents parsed back through
 * the corpus machinery, so records from forked workers and records
 * from sibling threads merge identically. Order-independent:
 * any permutation of @p shards yields the same result. @p fuzzer_name
 * labels the result. Throws corpus::ParseError on a malformed record
 * payload.
 */
CampaignResult mergeShardResults(const std::vector<ShardResult>& shards,
                                 const CampaignConfig& config,
                                 const std::string& fuzzer_name);

/**
 * Run a sharded campaign on config.shards workers of config.workerMode
 * and return the merged result. Resets global coverage hit state.
 */
CampaignResult runParallelCampaign(const ParallelCampaignConfig& config);

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_PARALLEL_CAMPAIGN_H
