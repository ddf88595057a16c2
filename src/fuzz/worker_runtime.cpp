#include "fuzz/worker_runtime.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "backends/defects.h"
#include "fuzz/wire.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "reduce/reducer.h"
#include "support/logging.h"

namespace nnsmith::fuzz {

ShardBackends::ShardBackends(const BackendFactory& factory)
    : owned(factory())
{
    list.reserve(owned.size());
    for (auto& backend : owned)
        list.push_back(backend.get());
    collector.take(); // drop backend-construction hits
}

namespace {

/**
 * Execute one self-seeded iteration and capture its wire-format
 * record, so a record's bytes are identical whether the worker is a
 * thread or a forked process.
 *
 * The collector must be active on this thread and already drained of
 * backend-construction hits. Minimization re-runs the oracle and bug
 * encoding re-runs the ONNX export; both land in the collector (and
 * the defect trace) and are dropped afterwards so neither can perturb
 * coverage or the next iteration's verdicts.
 */
ShardResult::IterationRecord
runOneIteration(const ParallelCampaignConfig& config, size_t index,
                const std::vector<backends::Backend*>& backend_list,
                coverage::CoverageCollector& collector)
{
    auto fuzzer = config.fuzzerFactory(
        deriveIterationSeed(config.masterSeed, index));
    IterationOutcome outcome = fuzzer->iterate(backend_list);
    ShardResult::IterationRecord record;
    record.index = index;
    record.cost = outcome.cost;
    record.produced = outcome.produced;
    record.instanceKeys = std::move(outcome.instanceKeys);
    record.hits = wire::hitsToWire(collector.take());
    obs::counterAdd("campaign.iterations");
    if (record.produced)
        obs::counterAdd("campaign.produced");
    if (!outcome.bugs.empty())
        obs::counterAdd("campaign.bugs.flagged", outcome.bugs.size());
    if (!outcome.bugs.empty()) {
        if (config.campaign.minimize) {
            // Minimize inside the shard: ddmin is a pure function of
            // the flagged case, so the merge stays shard-count
            // invariant, and the reduction parallelizes with the
            // campaign itself.
            reduce::minimizeBugs(outcome.bugs, backend_list);
        }
        backends::DefectRegistry::TraceScope trace_scope;
        record.bugs.reserve(outcome.bugs.size());
        for (const auto& bug : outcome.bugs)
            record.bugs.push_back(wire::encodeBug(bug));
        collector.take(); // drop oracle re-run + export render hits
    }
    return record;
}

/** A shard worker's answer to one posted round. */
struct RoundReply {
    enum class Kind { kOk, kError, kCrash };
    /** kCrash until a transport has read a whole reply. */
    Kind kind = Kind::kCrash;
    std::vector<ShardResult::IterationRecord> records;
    /** Cumulative liveness, sent when telemetry is on. */
    std::optional<obs::Heartbeat> heartbeat;
    std::string error; ///< kError: the worker's message
};

/**
 * The one shard worker loop body, run on a shard thread or inside a
 * forked worker process. Backends are built lazily, so a throwing
 * backend factory surfaces as an error reply like any other failure.
 */
class ShardWorker {
  public:
    ShardWorker(const ParallelCampaignConfig& config, int shard)
        : config_(config), shard_(shard), heartbeat_{shard, 0, 0, 0, 0}
    {
    }

    /** Run this shard's strided indexes of [begin, end). */
    RoundReply
    runRound(size_t begin, size_t end)
    {
        RoundReply reply;
        const size_t stride = static_cast<size_t>(config_.shards);
        const size_t first =
            begin + (static_cast<size_t>(shard_) + stride - begin % stride) %
                        stride;
        try {
            if (backends_ == nullptr)
                backends_ =
                    std::make_unique<ShardBackends>(config_.backendFactory);
            for (size_t index = first; index < end; index += stride) {
                reply.records.push_back(runOneIteration(
                    config_, index, backends_->list, backends_->collector));
                ++heartbeat_.iters;
                heartbeat_.bugs += reply.records.back().bugs.size();
                heartbeat_.hits += reply.records.back().hits.size();
            }
        } catch (const std::exception& error) {
            return errorReply(error.what());
        } catch (...) {
            return errorReply("unknown exception");
        }
        reply.kind = RoundReply::Kind::kOk;
        if (obs::metricsEnabled() || config_.progress != nullptr)
            reply.heartbeat = heartbeat_;
        ++heartbeat_.round;
        return reply;
    }

  private:
    static RoundReply
    errorReply(std::string what)
    {
        RoundReply reply;
        reply.kind = RoundReply::Kind::kError;
        reply.error = std::move(what);
        return reply;
    }

    const ParallelCampaignConfig& config_;
    const int shard_;
    std::unique_ptr<ShardBackends> backends_;
    obs::Heartbeat heartbeat_;
};

/** How the coordinator reaches its shard workers. */
class ShardTransport {
  public:
    ShardTransport() = default;
    ShardTransport(const ShardTransport&) = delete;
    ShardTransport& operator=(const ShardTransport&) = delete;
    virtual ~ShardTransport() = default;
    /** Hand @p shard the global iteration range [begin, end). */
    virtual void post(int shard, size_t begin, size_t end) = 0;
    /** True once @p shard's reply is ready, false after @p timeout_ms. */
    virtual bool ready(int shard, int timeout_ms) = 0;
    /** Block for @p shard's reply to the posted round. */
    virtual RoundReply take(int shard) = 0;
    /** Replace @p shard's worker with a freshly built one. */
    virtual void rebuild(int shard) = 0;
};

// ---------------------------------------------------------------------------
// Thread transport
// ---------------------------------------------------------------------------

/** One persistent std::thread per shard, each behind a mailbox. */
class ThreadShards final : public ShardTransport {
  public:
    explicit ThreadShards(const ParallelCampaignConfig& config)
        : boxes_(static_cast<size_t>(config.shards))
    {
        threads_.reserve(boxes_.size());
        try {
            for (int shard = 0; shard < config.shards; ++shard)
                threads_.emplace_back(
                    [this, &config, shard] { workerMain(config, shard); });
        } catch (...) {
            stopAll();
            throw;
        }
    }

    ~ThreadShards() override { stopAll(); }

    void
    post(int shard, size_t begin, size_t end) override
    {
        Mailbox& box = boxes_[static_cast<size_t>(shard)];
        std::lock_guard<std::mutex> lock(box.mu);
        box.begin = begin;
        box.end = end;
        box.posted = true;
        box.cv.notify_all();
    }

    bool
    ready(int shard, int timeout_ms) override
    {
        Mailbox& box = boxes_[static_cast<size_t>(shard)];
        std::unique_lock<std::mutex> lock(box.mu);
        return box.cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [&] { return box.reply.has_value(); });
    }

    RoundReply
    take(int shard) override
    {
        Mailbox& box = boxes_[static_cast<size_t>(shard)];
        std::unique_lock<std::mutex> lock(box.mu);
        box.cv.wait(lock, [&] { return box.reply.has_value(); });
        RoundReply reply = std::move(*box.reply);
        box.reply.reset();
        return reply;
    }

    void
    rebuild(int shard) override
    {
        Mailbox& box = boxes_[static_cast<size_t>(shard)];
        std::lock_guard<std::mutex> lock(box.mu);
        box.rebuild = true;
    }

  private:
    /** Stop every worker after its current round and join it. */
    void
    stopAll()
    {
        for (auto& box : boxes_) {
            std::lock_guard<std::mutex> lock(box.mu);
            box.stop = true;
            box.cv.notify_all();
        }
        for (auto& thread : threads_)
            thread.join();
    }

    struct Mailbox {
        std::mutex mu;
        std::condition_variable cv;
        bool posted = false;  ///< a round is waiting for the worker
        bool rebuild = false; ///< drop the worker before the next round
        bool stop = false;
        size_t begin = 0;
        size_t end = 0;
        std::optional<RoundReply> reply;
    };

    void
    workerMain(const ParallelCampaignConfig& config, int shard)
    {
        Mailbox& box = boxes_[static_cast<size_t>(shard)];
        std::optional<ShardWorker> worker;
        while (true) {
            size_t begin, end;
            bool rebuild;
            {
                std::unique_lock<std::mutex> lock(box.mu);
                box.cv.wait(lock, [&] { return box.stop || box.posted; });
                if (box.stop)
                    return;
                rebuild = box.rebuild;
                box.posted = box.rebuild = false;
                begin = box.begin;
                end = box.end;
            }
            if (rebuild || !worker)
                worker.emplace(config, shard);
            RoundReply reply = worker->runRound(begin, end);
            std::lock_guard<std::mutex> lock(box.mu);
            box.reply = std::move(reply);
            box.cv.notify_all();
        }
    }

    std::vector<Mailbox> boxes_;
    std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Process transport
// ---------------------------------------------------------------------------

/** write(2) the whole buffer; false on any error (e.g. EPIPE). */
bool
writeAll(int fd, const std::string& data)
{
    size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

/** Read one '\n'-terminated line (newline stripped); false on EOF. */
bool
readLineFd(int fd, std::string& line)
{
    line.clear();
    char c;
    while (true) {
        const ssize_t n = ::read(fd, &c, 1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-line: the peer died
        if (c == '\n')
            return true;
        line.push_back(c);
    }
}

/** Read exactly @p size bytes; false on EOF. */
bool
readExact(int fd, std::string& out, size_t size)
{
    out.resize(size);
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::read(fd, out.data() + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        done += static_cast<size_t>(n);
    }
    return true;
}

/** "<kind> <nbytes>\n<payload>". */
std::string
frame(const char* kind, const std::string& payload)
{
    return std::string(kind) + " " + std::to_string(payload.size()) + "\n" +
           payload;
}

/**
 * Worker-process main loop: answer "round <begin> <end>" commands with
 * the shard worker's reply — an optional telemetry frame (heartbeat
 * plus this round's metrics delta), then an `ok` frame holding the
 * encoded record block or an `error` frame holding the message — until
 * "stop" or coordinator death. A crash needs no frame: the coordinator
 * reads EOF.
 */
[[noreturn]] void
workerChildLoop(const ParallelCampaignConfig& config, int shard,
                int cmd_fd, int res_fd)
{
    // The parent flushed its trace buffer before forking; whatever we
    // inherited would be emitted twice. Same for the metrics shards:
    // the coordinator's counts are not ours to report.
    obs::traceOnFork();
    obs::metricsReset();

    ShardWorker worker(config, shard);
    std::string command;
    while (readLineFd(cmd_fd, command)) {
        if (command == "stop")
            ::_exit(0);
        size_t begin = 0, end = 0;
        if (std::sscanf(command.c_str(), "round %zu %zu", &begin,
                        &end) != 2)
            ::_exit(3); // protocol botch: not recoverable
        const RoundReply reply = worker.runRound(begin, end);
        std::string out;
        if (reply.heartbeat) {
            // Ignorable by contract: a coordinator that skips it loses
            // observability, never results.
            const auto& beat = *reply.heartbeat;
            out = frame("telemetry",
                        wire::encodeTelemetry(wire::TelemetryFrame{
                            shard, beat.round, beat.iters, beat.bugs,
                            beat.hits, obs::metricsDrain()}));
        }
        out += reply.kind == RoundReply::Kind::kOk
                   ? frame("ok", wire::encodeRecords(reply.records))
                   : frame("error", reply.error);
        obs::traceFlush(); // trace spans land before a possible crash
        if (!writeAll(res_fd, out))
            ::_exit(2); // coordinator went away
    }
    ::_exit(0); // command pipe EOF: coordinator went away
}

/** One forked worker process per shard, two pipes each. */
class ProcessShards final : public ShardTransport {
  public:
    explicit ProcessShards(const ParallelCampaignConfig& config)
        : config_(config), procs_(static_cast<size_t>(config.shards))
    {
        // A worker that died mid-write must surface as an EPIPE write
        // error (and a respawn), not kill the coordinator.
        struct sigaction ignore_pipe = {};
        ignore_pipe.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore_pipe, &oldPipe_);
        try {
            for (int shard = 0; shard < config.shards; ++shard)
                spawn(shard);
        } catch (...) {
            stopAll();
            throw;
        }
    }

    ~ProcessShards() override { stopAll(); }

    void
    post(int shard, size_t begin, size_t end) override
    {
        // A worker that died between rounds fails this write; its
        // result pipe then reads EOF, which take() reports as a crash.
        writeAll(procs_[static_cast<size_t>(shard)].cmd,
                 "round " + std::to_string(begin) + " " +
                     std::to_string(end) + "\n");
    }

    bool
    ready(int shard, int timeout_ms) override
    {
        struct pollfd pfd = {};
        pfd.fd = procs_[static_cast<size_t>(shard)].res;
        pfd.events = POLLIN;
        int n;
        do {
            n = ::poll(&pfd, 1, timeout_ms);
        } while (n < 0 && errno == EINTR);
        return n != 0; // data, EOF or an error: take() resolves each
    }

    RoundReply
    take(int shard) override
    {
        const int fd = procs_[static_cast<size_t>(shard)].res;
        RoundReply reply; // kCrash unless a whole ok/error frame arrives
        std::string header, payload;
        while (readLineFd(fd, header)) {
            char kind[16] = {};
            unsigned long long size = 0;
            if (std::sscanf(header.c_str(), "%15s %llu", kind, &size) != 2)
                return reply; // garbled header: treat as a crash
            const std::string tag = kind;
            if ((tag != "telemetry" && tag != "ok" && tag != "error") ||
                !readExact(fd, payload, static_cast<size_t>(size)))
                return reply;
            if (tag == "telemetry") {
                // Best-effort: a frame that fails the lenient decode
                // is dropped.
                if (const auto beat = wire::decodeTelemetry(payload)) {
                    reply.heartbeat = obs::Heartbeat{
                        beat->shard, beat->round, beat->iters, beat->bugs,
                        beat->hits};
                    if (obs::metricsEnabled())
                        obs::metricsMergeExternal(beat->metrics);
                }
                continue;
            }
            if (tag == "ok") {
                reply.kind = RoundReply::Kind::kOk;
                reply.records = wire::decodeRecords(payload);
            } else {
                reply.kind = RoundReply::Kind::kError;
                reply.error = std::move(payload);
            }
            return reply;
        }
        return reply; // EOF: the worker died
    }

    void
    rebuild(int shard) override
    {
        reap(procs_[static_cast<size_t>(shard)]);
        spawn(shard);
    }

  private:
    struct Proc {
        pid_t pid = -1;
        int cmd = -1; ///< coordinator-side write end (commands down)
        int res = -1; ///< coordinator-side read end (results up)
    };

    void
    spawn(int shard)
    {
        int down[2]; // coordinator -> worker
        int up[2];   // worker -> coordinator
        if (::pipe(down) != 0 || ::pipe(up) != 0)
            fatal("process shards: pipe() failed: " +
                  std::string(std::strerror(errno)));
        // Flush buffered trace events so the child inherits an empty
        // buffer (workerChildLoop drops any stragglers via
        // traceOnFork) — no event is lost or written twice.
        obs::traceFlush();
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("process shards: fork() failed: " +
                  std::string(std::strerror(errno)));
        if (pid == 0) {
            // Worker: drop the coordinator-side ends — including the
            // inherited ends of *sibling* pipes, or a dead sibling's
            // result pipe would never read EOF in the coordinator and
            // crash detection would hang.
            ::close(down[1]);
            ::close(up[0]);
            for (const auto& proc : procs_) {
                if (proc.cmd >= 0)
                    ::close(proc.cmd);
                if (proc.res >= 0)
                    ::close(proc.res);
            }
            workerChildLoop(config_, shard, down[0], up[1]);
        }
        ::close(down[0]);
        ::close(up[1]);
        procs_[static_cast<size_t>(shard)] = Proc{pid, down[1], up[0]};
    }

    static void
    reap(Proc& proc)
    {
        if (proc.cmd >= 0)
            ::close(proc.cmd);
        if (proc.res >= 0)
            ::close(proc.res);
        if (proc.pid > 0)
            ::waitpid(proc.pid, nullptr, 0);
        proc = Proc{};
    }

    void
    stopAll()
    {
        for (auto& proc : procs_) {
            if (proc.cmd >= 0)
                writeAll(proc.cmd, "stop\n"); // best-effort
        }
        for (auto& proc : procs_)
            reap(proc);
        ::sigaction(SIGPIPE, &oldPipe_, nullptr);
    }

    const ParallelCampaignConfig& config_;
    std::vector<Proc> procs_;
    struct sigaction oldPipe_ = {};
};

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/**
 * Await @p shard's reply to round [begin, end), applying the fault
 * policy: an error reply or a dead worker is recorded as a WorkerFault,
 * the worker rebuilt and the self-seeded round re-posted, until
 * kMaxRespawnsPerRound retries are spent. Returns the round's records.
 */
std::vector<ShardResult::IterationRecord>
awaitRound(const ParallelCampaignConfig& config, ShardTransport& transport,
           int shard, size_t begin, size_t end, ShardResult& result)
{
    obs::ProgressAggregator* const progress = config.progress.get();
    for (int attempt = 0;; ++attempt) {
        // Pure observation: a worker silent past the threshold is
        // flagged stalled (it may still finish — unlike a dead one),
        // and the wait goes on unbounded either way.
        if (progress != nullptr &&
            !transport.ready(shard, progress->stallAfterMs())) {
            progress->onStalled(shard);
            obs::counterAdd("fabric.worker_stalls");
            result.faults.push_back(
                WorkerFault{shard, begin, end, "stall", "", attempt});
        }
        RoundReply reply = transport.take(shard);
        if (reply.heartbeat) {
            if (progress != nullptr)
                progress->onHeartbeat(*reply.heartbeat);
            obs::counterAdd("fabric.heartbeats");
        }
        if (reply.kind == RoundReply::Kind::kOk)
            return std::move(reply.records);

        const bool crashed = reply.kind == RoundReply::Kind::kCrash;
        result.faults.push_back(WorkerFault{shard, begin, end,
                                            crashed ? "crash" : "error",
                                            reply.error, attempt});
        obs::counterAdd(crashed ? "fabric.respawns" : "fabric.worker_errors");
        if (progress != nullptr) {
            if (crashed)
                progress->onCrashed(shard);
            else
                progress->onErrored(shard);
        }
        if (attempt == kMaxRespawnsPerRound) {
            throw std::runtime_error(
                "parallel campaign worker " + std::to_string(shard) +
                (crashed ? " crashed " + std::to_string(attempt + 1) +
                               " times on iterations [" +
                               std::to_string(begin) + ", " +
                               std::to_string(end) +
                               "); giving up (deterministically crashing "
                               "case?)"
                         : ": " + reply.error));
        }
        transport.rebuild(shard);
        transport.post(shard, begin, end);
    }
}

/**
 * The round loop: dispatch rounds of blockIterations × shards indexes
 * until the executed prefix provably contains the campaign's end.
 */
std::vector<ShardResult>
coordinate(const ParallelCampaignConfig& config, ShardTransport& transport)
{
    const int shard_count = config.shards;
    std::vector<ShardResult> results(static_cast<size_t>(shard_count));
    for (int shard = 0; shard < shard_count; ++shard)
        results[static_cast<size_t>(shard)].shard = shard;
    obs::gaugeSet("fabric.workers", shard_count);

    const size_t block =
        config.blockIterations * static_cast<size_t>(shard_count);
    VirtualMs total_cost = 0;
    size_t executed = 0;
    while (executed < config.campaign.maxIterations &&
           total_cost < config.campaign.virtualBudget) {
        const size_t end =
            std::min(executed + block, config.campaign.maxIterations);
        for (int shard = 0; shard < shard_count; ++shard)
            transport.post(shard, executed, end);
        for (auto& result : results) {
            for (auto& record : awaitRound(config, transport, result.shard,
                                           executed, end, result)) {
                total_cost += std::max<VirtualMs>(record.cost, 1);
                result.records.push_back(std::move(record));
            }
        }
        executed = end;
    }
    return results;
}

} // namespace

const char*
workerModeName(WorkerMode mode)
{
    return mode == WorkerMode::kThread ? "thread" : "process";
}

std::vector<ShardResult>
runShards(const ParallelCampaignConfig& config)
{
    if (config.workerMode == WorkerMode::kThread) {
        ThreadShards transport(config);
        return coordinate(config, transport);
    }
    ProcessShards transport(config);
    return coordinate(config, transport);
}

} // namespace nnsmith::fuzz
