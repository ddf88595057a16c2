/**
 * @file
 * The campaign fabric's execution layer — one round coordinator and
 * one shard worker loop, over two transports.
 *
 * runShards turns a ParallelCampaignConfig into one wire-format
 * ShardResult per shard (fuzz/wire.h); the orchestrator
 * (fuzz/parallel_campaign.h) merges them without caring where the
 * shards ran.
 *
 *  - **Worker loop.** A shard worker builds its ShardBackends lazily
 *    on first use, runs the strided indexes of each posted round (the
 *    indexes congruent to its shard modulo the shard count) and
 *    replies with the round's records plus a cumulative heartbeat, or
 *    with the error that stopped it.
 *  - **Coordinator.** Posts each round's global iteration range to
 *    every shard, awaits each reply with one stall check, sums the
 *    virtual cost executed so far and stops once the budget or
 *    iteration cap is provably inside the executed prefix.
 *  - **Fault policy.** A reply that reports an error, or a worker that
 *    died (process shards only), becomes a WorkerFault; the shard's
 *    worker is rebuilt from scratch and the round re-posted. Every
 *    iteration is self-seeded (deriveIterationSeed), so the re-run
 *    yields the same records. After kMaxRespawnsPerRound failures on
 *    one round the campaign throws std::runtime_error carrying the
 *    worker's message, so a deterministically failing case cannot
 *    retry forever.
 *
 * Transports (ParallelCampaignConfig::workerMode):
 *
 *  - **thread**: one persistent std::thread per shard in this
 *    process, fed through an in-memory mailbox; records move across
 *    without encoding. Rebuilding a worker gives it a fresh collector
 *    and fresh backends on the same thread.
 *  - **process**: one forked worker process per shard, `round`/`stop`
 *    commands down a pipe and `telemetry`/`ok`/`error` frames back up
 *    another. A worker that dies mid-round (SIGKILL, abort, a crashing
 *    test case) reads as EOF; rebuilding it means respawning it.
 */
#ifndef NNSMITH_FUZZ_WORKER_RUNTIME_H
#define NNSMITH_FUZZ_WORKER_RUNTIME_H

#include <memory>
#include <vector>

#include "fuzz/parallel_campaign.h"

namespace nnsmith::fuzz {

/** Retries per (shard, round) before the campaign aborts. */
inline constexpr int kMaxRespawnsPerRound = 4;

/**
 * One shard's backends, built under the shard's own coverage
 * collector: the collector first (so construction hits are captured
 * rather than leaking into the global hit bits), then the backends,
 * then the construction hits are dropped. The collector binds to the
 * constructing thread, so build this on the thread that will use it.
 */
struct ShardBackends {
    explicit ShardBackends(const BackendFactory& factory);

    coverage::CoverageCollector collector;
    std::vector<std::unique_ptr<backends::Backend>> owned;
    std::vector<backends::Backend*> list;
};

/**
 * Execute the campaign's rounds on config.shards workers of
 * config.workerMode and return one ShardResult per shard, records in
 * wire format. Throws once a round exhausts its retries. Does not
 * touch global coverage hit state (workers collect into their own
 * CoverageCollectors).
 */
std::vector<ShardResult> runShards(const ParallelCampaignConfig& config);

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_WORKER_RUNTIME_H
