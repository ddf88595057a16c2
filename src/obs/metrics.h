/**
 * @file
 * Process-wide metrics registry — named counters, gauges and
 * histograms with per-thread shards and a deterministic snapshot.
 *
 * The campaign stack records what it *does* (iterations executed,
 * per-backend execution time, oracle comparisons, mutation outcomes,
 * ddmin test budget, worker respawns) into this registry; nothing in
 * the registry ever feeds back into fuzzing decisions, coverage, bug
 * dedup or the campaign merge. That inertness is the telemetry
 * subsystem's core contract (DESIGN.md "Telemetry"): merged campaign
 * results are byte-identical with metrics enabled or disabled.
 *
 * Threading model: every recording thread owns a private shard (a
 * thread_local map), so the hot path takes only that shard's
 * uncontended mutex. snapshot() folds live shards, retired shards
 * (threads that exited) and external contributions (metrics frames
 * shipped home by forked campaign workers, fuzz/wire.h) into one
 * MetricsSnapshot. Merging is deterministic: names are sorted, counters
 * and histograms add, gauges take the maximum — so folding shard A
 * into B equals folding B into A.
 *
 * Recording is gated on a process-global enable flag (default off);
 * when disabled every record call is a single relaxed atomic load.
 */
#ifndef NNSMITH_OBS_METRICS_H
#define NNSMITH_OBS_METRICS_H

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace nnsmith::obs {

/** Log2-bucketed histogram: value v lands in bucket
 *  min(kHistBuckets-1, bit_width(v)). Bucket 0 therefore holds v == 0,
 *  bucket i holds [2^(i-1), 2^i). */
inline constexpr size_t kHistBuckets = 24;

struct HistogramData {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kHistBuckets> buckets{};

    void observe(uint64_t value);
    void mergeFrom(const HistogramData& other);

    friend bool operator==(const HistogramData& a,
                           const HistogramData& b)
    {
        return a.count == b.count && a.sum == b.sum &&
               a.buckets == b.buckets;
    }
};

/** One deterministic view of every metric: sorted names, merged
 *  shards. Also the unit that crosses the process boundary in wire
 *  telemetry frames. */
struct MetricsSnapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramData> histograms;

    /** Deterministic fold: counters/histograms add, gauges take the
     *  max. Commutative and associative, so any merge order over a set
     *  of shards produces the same snapshot. */
    void mergeFrom(const MetricsSnapshot& other);

    bool empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }

    /** Canonical JSON (sorted keys, fixed field order) — the
     *  --metrics-out file format. Byte-identical for equal snapshots. */
    std::string renderJson() const;

    friend bool operator==(const MetricsSnapshot& a,
                           const MetricsSnapshot& b)
    {
        return a.counters == b.counters && a.gauges == b.gauges &&
               a.histograms == b.histograms;
    }
};

/** Global gate. Disabled (the default) makes every record call a
 *  single atomic load; campaign semantics never depend on it. */
bool metricsEnabled();
void setMetricsEnabled(bool enabled);

/** Record into the calling thread's shard. No-ops when disabled. */
void counterAdd(const std::string& name, uint64_t delta = 1);
void gaugeSet(const std::string& name, int64_t value);
void histObserve(const std::string& name, uint64_t value);

/** Deterministic fold of all live shards + retired shards + external
 *  contributions. Does not clear anything. */
MetricsSnapshot metricsSnapshot();

/** snapshot() then clear all shards and external state — how forked
 *  campaign workers turn their registry into per-round delta frames. */
MetricsSnapshot metricsDrain();

/** Fold a snapshot that arrived from another process (a worker's wire
 *  telemetry frame) into this process's registry. */
void metricsMergeExternal(const MetricsSnapshot& snapshot);

/** Clear every shard and external contribution (keeps the enable
 *  flag). Forked workers call this right after fork so inherited
 *  coordinator metrics are not double-counted. */
void metricsReset();

/** Append @p text to @p out as a quoted JSON string literal, escaping
 *  quotes, backslashes and control characters — the one escaper of
 *  every JSON text the repo writes (metrics snapshots, bench records). */
void appendJsonString(std::string& out, const std::string& text);

} // namespace nnsmith::obs

#endif // NNSMITH_OBS_METRICS_H
