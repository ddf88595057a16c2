/**
 * @file
 * Live campaign progress — per-worker heartbeats aggregated into a
 * throttled stderr line, with stalled-vs-crashed worker diagnosis.
 *
 * The fabric's one round coordinator (fuzz/worker_runtime.h) feeds a
 * ProgressAggregator with the heartbeat each shard worker attaches to
 * its round reply — in memory from thread shards, decoded from a wire
 * telemetry frame (fuzz/wire.h) from process shards.
 *
 * The coordinator additionally reports liveness transitions: a worker
 * that produced no heartbeat for `stallAfterMs` while a round is
 * outstanding is flagged *stalled* (it may still finish); a worker
 * whose pipe went EOF is flagged *crashed* (it will be respawned);
 * a worker that replied with an error is flagged *errored*. The
 * three are distinct states on the progress line — a hung test case
 * looks nothing like a dead worker.
 *
 * Aggregation is telemetry only: the aggregator observes the campaign
 * and never influences scheduling, merging or results (DESIGN.md
 * "Telemetry"). Printing is throttled (`printEveryMs`) and can be
 * disabled entirely for silent aggregation in tests.
 */
#ifndef NNSMITH_OBS_PROGRESS_H
#define NNSMITH_OBS_PROGRESS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace nnsmith::obs {

struct ProgressOptions {
    /** Print the live line to stderr (off = aggregate silently). */
    bool printToStderr = true;
    /** Minimum interval between printed updates. */
    int printEveryMs = 250;
    /** No heartbeat for this long while a round is outstanding ⇒ the
     *  worker is flagged stalled. */
    int stallAfterMs = 2000;
};

/** One worker-side progress report (cumulative within the worker). */
struct Heartbeat {
    int shard = 0;
    uint64_t round = 0;
    uint64_t iters = 0; ///< iterations executed so far
    uint64_t bugs = 0;  ///< flagged bug records so far
    uint64_t hits = 0;  ///< coverage hits observed so far (pre-dedup)
};

/** Process-global request (the --progress flag): when set, campaigns
 *  without an explicitly wired aggregator attach a default one in
 *  runParallelCampaign, so every campaign driver honors the flag. */
bool progressRequested();
void setProgressRequested(bool requested);

class ProgressAggregator {
  public:
    enum class WorkerState { kUnknown, kOk, kStalled, kCrashed, kErrored };

    struct WorkerView {
        WorkerState state = WorkerState::kUnknown;
        uint64_t iters = 0;
        uint64_t bugs = 0;
        uint64_t hits = 0;
        uint64_t lastRound = 0;
        int respawns = 0; ///< crash-triggered respawns observed
        int errors = 0;   ///< error frames observed
    };

    explicit ProgressAggregator(ProgressOptions options = {});

    /** Called by the campaign before the first round. */
    void attach(int shards, const std::string& mode);

    void onHeartbeat(const Heartbeat& heartbeat);
    void onStalled(int shard);
    void onCrashed(int shard); ///< pipe EOF observed; a respawn follows
    void onErrored(int shard); ///< worker reported an error frame

    /** Final print + newline so later stderr output starts clean. */
    void finish();

    /** Snapshot for tests and post-run inspection. */
    std::vector<WorkerView> workers() const;
    /** Total stall flags raised (a worker can stall repeatedly). */
    uint64_t stallEvents() const;
    uint64_t heartbeats() const;

    int stallAfterMs() const { return options_.stallAfterMs; }

  private:
    void printLocked(bool force);

    ProgressOptions options_;
    mutable std::mutex mu_;
    std::string mode_;
    std::vector<WorkerView> workers_;
    uint64_t stallEvents_ = 0;
    uint64_t heartbeats_ = 0;
    bool printedAnything_ = false;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point lastPrint_;
};

} // namespace nnsmith::obs

#endif // NNSMITH_OBS_PROGRESS_H
