#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <mutex>
#include <vector>

namespace nnsmith::obs {

namespace {

std::atomic<bool> g_enabled{false};

/** One thread's private metric store. The owning thread records under
 *  shard->mu; snapshot/drain readers take the same mutex, so the hot
 *  path stays uncontended unless a snapshot is in flight. */
struct Shard {
    std::mutex mu;
    MetricsSnapshot data;
};

/**
 * The process-global registry. Intentionally leaked (never destroyed)
 * so that atexit handlers and late thread exits can always reach it —
 * the classic static-destruction-order dodge for observability
 * singletons.
 */
struct Registry {
    std::mutex mu;
    std::vector<Shard*> live;
    MetricsSnapshot retired;  ///< shards of threads that exited
    MetricsSnapshot external; ///< worker frames folded in via merge
};

Registry&
registry()
{
    static Registry* g = new Registry;
    return *g;
}

/** Registers with the registry on construction, folds its contents
 *  into `retired` on thread exit. */
struct ShardHandle {
    Shard shard;

    ShardHandle()
    {
        auto& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mu);
        reg.live.push_back(&shard);
    }

    ~ShardHandle()
    {
        auto& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mu);
        {
            std::lock_guard<std::mutex> shard_lock(shard.mu);
            reg.retired.mergeFrom(shard.data);
        }
        for (auto it = reg.live.begin(); it != reg.live.end(); ++it) {
            if (*it == &shard) {
                reg.live.erase(it);
                break;
            }
        }
    }
};

Shard&
myShard()
{
    thread_local ShardHandle handle;
    return handle.shard;
}

} // namespace

void
HistogramData::observe(uint64_t value)
{
    const size_t bucket =
        std::min<size_t>(kHistBuckets - 1, std::bit_width(value));
    ++buckets[bucket];
    ++count;
    sum += value;
}

void
HistogramData::mergeFrom(const HistogramData& other)
{
    count += other.count;
    sum += other.sum;
    for (size_t i = 0; i < kHistBuckets; ++i)
        buckets[i] += other.buckets[i];
}

void
MetricsSnapshot::mergeFrom(const MetricsSnapshot& other)
{
    for (const auto& [name, value] : other.counters)
        counters[name] += value;
    for (const auto& [name, value] : other.gauges) {
        const auto it = gauges.find(name);
        if (it == gauges.end())
            gauges[name] = value;
        else
            it->second = std::max(it->second, value);
    }
    for (const auto& [name, data] : other.histograms)
        histograms[name].mergeFrom(data);
}

void
appendJsonString(std::string& out, const std::string& text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string
MetricsSnapshot::renderJson() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": " + std::to_string(value);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : gauges) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": " + std::to_string(value);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, data] : histograms) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": {\"count\": " + std::to_string(data.count) +
               ", \"sum\": " + std::to_string(data.sum) +
               ", \"buckets\": [";
        for (size_t i = 0; i < kHistBuckets; ++i) {
            if (i > 0)
                out += ", ";
            out += std::to_string(data.buckets[i]);
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

bool
metricsEnabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setMetricsEnabled(bool enabled)
{
    g_enabled.store(enabled, std::memory_order_relaxed);
}

void
counterAdd(const std::string& name, uint64_t delta)
{
    if (!metricsEnabled())
        return;
    Shard& shard = myShard();
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.data.counters[name] += delta;
}

void
gaugeSet(const std::string& name, int64_t value)
{
    if (!metricsEnabled())
        return;
    Shard& shard = myShard();
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.data.gauges[name] = value;
}

void
histObserve(const std::string& name, uint64_t value)
{
    if (!metricsEnabled())
        return;
    Shard& shard = myShard();
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.data.histograms[name].observe(value);
}

MetricsSnapshot
metricsSnapshot()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    MetricsSnapshot merged = reg.retired;
    merged.mergeFrom(reg.external);
    for (Shard* shard : reg.live) {
        std::lock_guard<std::mutex> shard_lock(shard->mu);
        merged.mergeFrom(shard->data);
    }
    return merged;
}

MetricsSnapshot
metricsDrain()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    MetricsSnapshot merged = std::move(reg.retired);
    reg.retired = MetricsSnapshot{};
    merged.mergeFrom(reg.external);
    reg.external = MetricsSnapshot{};
    for (Shard* shard : reg.live) {
        std::lock_guard<std::mutex> shard_lock(shard->mu);
        merged.mergeFrom(shard->data);
        shard->data = MetricsSnapshot{};
    }
    return merged;
}

void
metricsMergeExternal(const MetricsSnapshot& snapshot)
{
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.external.mergeFrom(snapshot);
}

void
metricsReset()
{
    (void)metricsDrain();
}

} // namespace nnsmith::obs
