/**
 * @file
 * The campaign wire format — process-portable iteration records.
 *
 * One shard's output must mean the same thing in any process, so the
 * fabric serializes per-iteration payloads canonically:
 *
 *  - **Coverage hits** travel as canonical *site keys*
 *    (coverage::SiteInfo) instead of process-local BranchId values;
 *    the consumer re-interns each key into its own registry
 *    (CoverageRegistry::internSiteKey). Hits are sorted by key, the
 *    only process-independent order.
 *  - **Bugs** travel as rendered repro documents: the existing corpus
 *    schema (corpus::renderRepro / corpus::parseRepro) — already the
 *    byte-exact on-disk format for minimized repros — doubles as the
 *    in-flight encoding, with a small header-only variant for bug
 *    records that carry no repro material.
 *  - **Record blocks** are line-oriented with byte-counted bug
 *    payloads and explicit element counts, so truncation and
 *    corruption surface as structured corpus::ParseError, never as a
 *    crash — the same malformed-input contract the corpus parsers
 *    enforce.
 *
 * Round trip: decodeRecords(encodeRecords(rs)) reproduces rs exactly,
 * and re-encoding is byte-identical — the regression oracle for the
 * whole fabric (tests/fabric_test.cpp). Shard workers
 * (fuzz/worker_runtime.h) produce records in this format whether they
 * run as threads or as forked processes streaming over pipes, and
 * mergeShardResults consumes nothing else.
 */
#ifndef NNSMITH_FUZZ_WIRE_H
#define NNSMITH_FUZZ_WIRE_H

#include <optional>
#include <string>
#include <vector>

#include "coverage/coverage.h"
#include "fuzz/parallel_campaign.h"
#include "obs/metrics.h"

namespace nnsmith::fuzz::wire {

/**
 * Serialize one bug record. Records with repro material render
 * through corpus::renderRepro (the canonical repro document — the
 * graph side re-runs the ONNX export, so callers mid-campaign must
 * scope the defect trace and drain their CoverageCollector
 * afterwards, as shard workers do); repro-less records render
 * as a header-only document: a magic line plus the repro document's
 * header lines (corpus::renderBugHeader).
 */
std::string encodeBug(const BugRecord& bug);

/**
 * Parse a wire bug document back into a replayable BugRecord —
 * corpus::parseRepro for repro documents, corpus::parseBugHeader for
 * repro-less ones, so both reject an empty fingerprint or an unknown
 * kind. Throws corpus::ParseError on malformed input.
 */
BugRecord decodeBug(const std::string& text);

/**
 * Canonical wire form of a collector's hit delta: site keys + pass
 * tags for @p ids (this process's registry), sorted by key.
 */
std::vector<SiteHit> hitsToWire(const std::vector<coverage::BranchId>& ids);

/**
 * Re-intern wire hits into this process's registry, returning local
 * BranchIds (in the same order). Unknown sites are registered with
 * the key's component and the carried pass tag. Throws
 * corpus::ParseError on a key with no component prefix.
 */
std::vector<coverage::BranchId> hitsFromWire(const std::vector<SiteHit>& hits);

/** Serialize a block of iteration records (one worker round). */
std::string encodeRecords(
    const std::vector<ShardResult::IterationRecord>& records);

/**
 * Parse a record block. Strict: wrong magic, malformed counts,
 * truncated payloads or trailing bytes all throw corpus::ParseError.
 * Bug payloads are carried verbatim (decoded lazily by the merge), so
 * encode(decode(encode(rs))) == encode(rs) byte-for-byte.
 */
std::vector<ShardResult::IterationRecord> decodeRecords(
    const std::string& text);

/**
 * One worker's per-round telemetry: a heartbeat (cumulative progress
 * counters) plus the round's metrics delta (obs::metricsDrain in the
 * worker). Telemetry frames are *ignorable by contract*: they ride the
 * wire ahead of the result frame, a coordinator that does not
 * understand them (or a future version) skips them without affecting
 * the campaign, and nothing in them reaches mergeShardResults.
 */
struct TelemetryFrame {
    int shard = 0;
    uint64_t round = 0; ///< round index just finished
    uint64_t iters = 0; ///< cumulative iterations in this worker
    uint64_t bugs = 0;  ///< cumulative flagged bug records
    uint64_t hits = 0;  ///< cumulative coverage hits (pre-dedup)
    obs::MetricsSnapshot metrics; ///< this round's metrics delta
};

/**
 * Serialize a telemetry frame. Versioned, line-oriented grammar
 * ("nnsmith-telemetry 1" ... "end-telemetry"; see DESIGN.md
 * "Telemetry") so coordinators can skip frames from newer workers.
 */
std::string encodeTelemetry(const TelemetryFrame& frame);

/**
 * Parse a telemetry frame. Deliberately lenient — telemetry is
 * advisory, so an unknown version, unknown line kind or malformed
 * field yields std::nullopt (never a throw): the coordinator drops
 * the frame and the campaign proceeds untouched.
 */
std::optional<TelemetryFrame> decodeTelemetry(const std::string& text);

} // namespace nnsmith::fuzz::wire

#endif // NNSMITH_FUZZ_WIRE_H
