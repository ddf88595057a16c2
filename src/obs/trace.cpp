#include "obs/trace.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "support/logging.h"

namespace nnsmith::obs {

namespace {

/** Flush threshold: large enough to amortize write(2), small enough
 *  that a crashing worker loses little. */
constexpr size_t kFlushBytes = 64 * 1024;

struct Sink {
    std::mutex mu;
    int fd = -1;
    std::string pending; ///< whole lines only
    std::chrono::steady_clock::time_point epoch;
};

std::atomic<bool> g_enabled{false};

Sink&
sink()
{
    static Sink* g = new Sink; // leaked: see obs/metrics.cpp
    return *g;
}

/** Small dense per-thread id for the "tid" field (std::thread::id has
 *  no portable integer form). */
int
myTid()
{
    static std::atomic<int> next{1};
    thread_local int tid = next.fetch_add(1);
    return tid;
}

/** mu must be held. */
void
flushLocked(Sink& s)
{
    if (s.fd < 0 || s.pending.empty())
        return;
    // One write(2) of whole lines: with O_APPEND, concurrent flushes
    // from coordinator and forked workers append atomically enough
    // that lines never interleave mid-byte.
    size_t done = 0;
    while (done < s.pending.size()) {
        const ssize_t n = ::write(s.fd, s.pending.data() + done,
                                  s.pending.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // telemetry must never take the campaign down
        }
        done += static_cast<size_t>(n);
    }
    s.pending.clear();
}

} // namespace

bool
traceEnabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
traceOpen(const std::string& path)
{
    Sink& s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.fd >= 0) {
        ::close(s.fd);
        s.fd = -1;
    }
    s.fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (s.fd < 0)
        fatal("traceOpen: cannot open '" + path + "': " +
              std::strerror(errno));
    s.pending.clear();
    s.epoch = std::chrono::steady_clock::now();
    g_enabled.store(true, std::memory_order_relaxed);
}

void
traceClose()
{
    Sink& s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    g_enabled.store(false, std::memory_order_relaxed);
    flushLocked(s);
    if (s.fd >= 0) {
        ::close(s.fd);
        s.fd = -1;
    }
}

void
traceFlush()
{
    Sink& s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    flushLocked(s);
}

void
traceOnFork()
{
    Sink& s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    // The parent owns (and flushed) everything buffered before the
    // fork; anything still here would be emitted twice.
    s.pending.clear();
}

uint64_t
traceNowUs()
{
    Sink& s = sink();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - s.epoch)
            .count());
}

PhaseSpan::PhaseSpan(const char* name)
{
    if (!traceEnabled() && !metricsEnabled())
        return;
    name_ = name;
    startUs_ = traceNowUs();
    active_ = true;
}

PhaseSpan::PhaseSpan(const char* prefix, const std::string& dynamic)
{
    if (!traceEnabled() && !metricsEnabled())
        return;
    name_ = prefix;
    name_ += dynamic;
    startUs_ = traceNowUs();
    active_ = true;
}

void
PhaseSpan::rename(const char* name)
{
    if (active_)
        name_ = name;
}

PhaseSpan::~PhaseSpan()
{
    if (!active_)
        return;
    const uint64_t dur = traceNowUs() - startUs_;
    if (metricsEnabled())
        histObserve("phase." + name_, dur);
    if (!traceEnabled())
        return;
    std::string line = "{\"name\":\"";
    line += name_; // phase names are fixed spellings; no escaping needed
    line += "\",\"cat\":\"campaign\",\"ph\":\"X\",\"ts\":";
    line += std::to_string(startUs_);
    line += ",\"dur\":";
    line += std::to_string(dur);
    line += ",\"pid\":";
    line += std::to_string(static_cast<long>(::getpid()));
    line += ",\"tid\":";
    line += std::to_string(myTid());
    line += "}\n";
    Sink& s = sink();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.fd < 0)
        return; // closed between the check and the lock
    s.pending += line;
    if (s.pending.size() >= kFlushBytes)
        flushLocked(s);
}

} // namespace nnsmith::obs
