#include "fuzz/wire.h"

#include <algorithm>
#include <limits>

#include "corpus/corpus.h"
#include "corpus/parser.h"

namespace nnsmith::fuzz::wire {

using corpus::ParseError;

namespace {

/** First line of a record block. */
constexpr const char* kBlockMagic = "nnsmith-wire 1";
/** First line of a header-only (repro-less) bug document. */
constexpr const char* kWireBugMagic = "# nnsmith wire bug (no repro)";
/** First line of a telemetry frame (version-bearing). */
constexpr const char* kTelemetryMagic = "nnsmith-telemetry 1";

[[noreturn]] void
fail(const std::string& what)
{
    throw ParseError("wire parse: " + what);
}

/** Strict non-negative base-10 integer over the whole token. */
uint64_t
parseCount(const std::string& token, const char* what)
{
    const auto value = corpus::parseDecimal(token);
    if (!value)
        fail(std::string("malformed ") + what + " '" + token + "'");
    return *value;
}

/** Cursor over the serialized block: lines + raw byte spans. */
struct Cursor {
    const std::string& text;
    size_t pos = 0;

    bool done() const { return pos >= text.size(); }

    std::string line(const char* what)
    {
        if (done())
            fail(std::string("truncated input: expected ") + what);
        const auto nl = text.find('\n', pos);
        if (nl == std::string::npos)
            fail(std::string("unterminated line: expected ") + what);
        std::string out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return out;
    }

    std::string bytes(size_t n, const char* what)
    {
        if (text.size() - pos < n)
            fail(std::string("truncated ") + what + ": want " +
                 std::to_string(n) + " bytes, have " +
                 std::to_string(text.size() - pos));
        std::string out = text.substr(pos, n);
        pos += n;
        return out;
    }
};

std::vector<std::string>
splitTokens(const std::string& line)
{
    std::vector<std::string> tokens;
    size_t start = 0;
    while (start < line.size()) {
        const auto space = line.find(' ', start);
        if (space == std::string::npos) {
            tokens.push_back(line.substr(start));
            break;
        }
        if (space > start)
            tokens.push_back(line.substr(start, space - start));
        start = space + 1;
    }
    return tokens;
}

bool
startsWith(const std::string& s, const char* prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Header-only document for a bug that carries no repro material. */
BugRecord
decodeBareBug(const std::string& text)
{
    Cursor cursor{text};
    cursor.line("wire bug magic"); // already matched by the caller
    BugRecord bug = corpus::parseBugHeader(
        [&](const char* what) { return cursor.line(what); });
    if (!cursor.done())
        fail("trailing content after a repro-less bug document");
    return bug;
}

} // namespace

std::string
encodeBug(const BugRecord& bug)
{
    if (bug.repro != nullptr)
        return corpus::renderRepro(bug);
    return std::string(kWireBugMagic) + '\n' + corpus::renderBugHeader(bug);
}

BugRecord
decodeBug(const std::string& text)
{
    const auto nl = text.find('\n');
    const std::string first =
        nl == std::string::npos ? text : text.substr(0, nl);
    if (first == corpus::schema::kMagic)
        return corpus::parseRepro(text);
    if (first == kWireBugMagic)
        return decodeBareBug(text);
    fail("unknown bug document magic '" + first + "'");
}

std::vector<SiteHit>
hitsToWire(const std::vector<coverage::BranchId>& ids)
{
    const auto infos =
        coverage::CoverageRegistry::instance().describeSites(ids);
    std::vector<SiteHit> hits;
    hits.reserve(infos.size());
    for (const auto& info : infos)
        hits.push_back(SiteHit{info.passOnly, info.key});
    // Site keys are the only process-independent order; BranchId
    // order is first-discovery order and scheduling-dependent.
    std::sort(hits.begin(), hits.end(),
              [](const SiteHit& a, const SiteHit& b) {
                  return a.key < b.key;
              });
    return hits;
}

std::vector<coverage::BranchId>
hitsFromWire(const std::vector<SiteHit>& hits)
{
    auto& registry = coverage::CoverageRegistry::instance();
    std::vector<coverage::BranchId> ids;
    ids.reserve(hits.size());
    for (const auto& hit : hits) {
        const auto bar = hit.key.find('|');
        if (bar == std::string::npos || bar == 0)
            fail("site key '" + hit.key + "' has no component prefix");
        ids.push_back(registry.internSiteKey(hit.key, hit.passOnly));
    }
    return ids;
}

std::string
encodeRecords(const std::vector<ShardResult::IterationRecord>& records)
{
    std::string out;
    out += kBlockMagic;
    out += '\n';
    for (const auto& record : records) {
        out += "record " + std::to_string(record.index) + " " +
               std::to_string(static_cast<long long>(record.cost)) +
               " " + (record.produced ? "1" : "0") + " " +
               std::to_string(record.hits.size()) + " " +
               std::to_string(record.instanceKeys.size()) + " " +
               std::to_string(record.bugs.size()) + "\n";
        for (const auto& hit : record.hits) {
            out += hit.passOnly ? "hit P " : "hit - ";
            out += hit.key;
            out += '\n';
        }
        for (const auto& key : record.instanceKeys) {
            out += "key ";
            out += key;
            out += '\n';
        }
        for (const auto& bug : record.bugs) {
            out += "bug " + std::to_string(bug.size()) + "\n";
            out += bug;
            out += '\n';
        }
        out += "end\n";
    }
    out += "end-block\n";
    return out;
}

std::vector<ShardResult::IterationRecord>
decodeRecords(const std::string& text)
{
    Cursor cursor{text};
    if (cursor.line("block magic") != kBlockMagic)
        fail(std::string("missing block magic '") + kBlockMagic + "'");
    std::vector<ShardResult::IterationRecord> records;
    while (true) {
        const std::string header = cursor.line("record header");
        if (header == "end-block")
            break;
        const auto tokens = splitTokens(header);
        if (tokens.size() != 7 || tokens[0] != "record")
            fail("malformed record header '" + header + "'");
        ShardResult::IterationRecord record;
        record.index = static_cast<size_t>(
            parseCount(tokens[1], "record index"));
        // Virtual costs are non-negative by construction; reject
        // anything else rather than reinterpret it.
        const uint64_t cost = parseCount(tokens[2], "record cost");
        if (cost > static_cast<uint64_t>(
                       std::numeric_limits<VirtualMs>::max()))
            fail("out-of-range record cost '" + tokens[2] + "'");
        record.cost = static_cast<VirtualMs>(cost);
        if (tokens[3] != "0" && tokens[3] != "1")
            fail("malformed produced flag '" + tokens[3] + "'");
        record.produced = tokens[3] == "1";
        const uint64_t hit_count = parseCount(tokens[4], "hit count");
        const uint64_t key_count = parseCount(tokens[5], "key count");
        const uint64_t bug_count = parseCount(tokens[6], "bug count");
        for (uint64_t i = 0; i < hit_count; ++i) {
            const std::string line = cursor.line("hit line");
            if (startsWith(line, "hit P "))
                record.hits.push_back(SiteHit{true, line.substr(6)});
            else if (startsWith(line, "hit - "))
                record.hits.push_back(SiteHit{false, line.substr(6)});
            else
                fail("malformed hit line '" + line + "'");
            if (record.hits.back().key.empty())
                fail("hit line with an empty site key");
        }
        for (uint64_t i = 0; i < key_count; ++i) {
            const std::string line = cursor.line("instance-key line");
            if (!startsWith(line, "key "))
                fail("malformed instance-key line '" + line + "'");
            record.instanceKeys.push_back(line.substr(4));
        }
        for (uint64_t i = 0; i < bug_count; ++i) {
            const std::string header_line = cursor.line("bug header");
            if (!startsWith(header_line, "bug "))
                fail("malformed bug header '" + header_line + "'");
            const uint64_t size =
                parseCount(header_line.substr(4), "bug byte count");
            record.bugs.push_back(
                cursor.bytes(static_cast<size_t>(size), "bug payload"));
            if (cursor.line("bug payload terminator") != "")
                fail("bug payload not newline-terminated");
        }
        if (cursor.line("record terminator") != "end")
            fail("record not terminated by 'end'");
        records.push_back(std::move(record));
    }
    if (!cursor.done())
        fail("trailing bytes after end-block");
    return records;
}

namespace {

std::optional<int64_t>
tryParseI64(const std::string& token)
{
    const bool negative = !token.empty() && token[0] == '-';
    // Telemetry is advisory: a malformed number is nullopt, never a
    // throw.
    const auto magnitude =
        corpus::parseDecimal(negative ? token.substr(1) : token);
    if (!magnitude)
        return std::nullopt;
    if (negative) {
        if (*magnitude >
            static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1)
            return std::nullopt;
        return static_cast<int64_t>(0 - *magnitude);
    }
    if (*magnitude >
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()))
        return std::nullopt;
    return static_cast<int64_t>(*magnitude);
}

} // namespace

std::string
encodeTelemetry(const TelemetryFrame& frame)
{
    std::string out;
    out += kTelemetryMagic;
    out += '\n';
    out += "heartbeat " + std::to_string(frame.shard) + " " +
           std::to_string(frame.round) + " " +
           std::to_string(frame.iters) + " " +
           std::to_string(frame.bugs) + " " +
           std::to_string(frame.hits) + "\n";
    // Metric names go last on each line so they may contain spaces;
    // the numeric fields are fixed-position prefixes.
    for (const auto& [name, value] : frame.metrics.counters)
        out += "counter " + std::to_string(value) + " " + name + "\n";
    for (const auto& [name, value] : frame.metrics.gauges)
        out += "gauge " + std::to_string(value) + " " + name + "\n";
    for (const auto& [name, data] : frame.metrics.histograms) {
        out += "hist " + std::to_string(data.count) + " " +
               std::to_string(data.sum);
        for (const auto bucket : data.buckets)
            out += " " + std::to_string(bucket);
        out += " " + name + "\n";
    }
    out += "end-telemetry\n";
    return out;
}

std::optional<TelemetryFrame>
decodeTelemetry(const std::string& text)
{
    // Hand-rolled lenient scan (no Cursor: that throws on truncation).
    size_t pos = 0;
    const auto nextLine = [&]() -> std::optional<std::string> {
        if (pos >= text.size())
            return std::nullopt;
        const auto nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return std::nullopt;
        std::string out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return out;
    };

    const auto magic = nextLine();
    if (!magic || *magic != kTelemetryMagic)
        return std::nullopt;

    TelemetryFrame frame;
    bool sawHeartbeat = false;
    while (true) {
        const auto line = nextLine();
        if (!line)
            return std::nullopt; // truncated frame
        if (*line == "end-telemetry")
            break;
        const auto tokens = splitTokens(*line);
        if (tokens.empty())
            return std::nullopt;
        if (tokens[0] == "heartbeat") {
            if (tokens.size() != 6)
                return std::nullopt;
            const auto shard = corpus::parseDecimal(tokens[1]);
            const auto round = corpus::parseDecimal(tokens[2]);
            const auto iters = corpus::parseDecimal(tokens[3]);
            const auto bugs = corpus::parseDecimal(tokens[4]);
            const auto hits = corpus::parseDecimal(tokens[5]);
            if (!shard || !round || !iters || !bugs || !hits ||
                *shard > static_cast<uint64_t>(
                             std::numeric_limits<int>::max()))
                return std::nullopt;
            frame.shard = static_cast<int>(*shard);
            frame.round = *round;
            frame.iters = *iters;
            frame.bugs = *bugs;
            frame.hits = *hits;
            sawHeartbeat = true;
        } else if (tokens[0] == "counter") {
            if (tokens.size() < 3)
                return std::nullopt;
            const auto value = corpus::parseDecimal(tokens[1]);
            if (!value)
                return std::nullopt;
            const auto nameStart =
                tokens[0].size() + 1 + tokens[1].size() + 1;
            frame.metrics.counters[line->substr(nameStart)] += *value;
        } else if (tokens[0] == "gauge") {
            if (tokens.size() < 3)
                return std::nullopt;
            const auto value = tryParseI64(tokens[1]);
            if (!value)
                return std::nullopt;
            const auto nameStart =
                tokens[0].size() + 1 + tokens[1].size() + 1;
            frame.metrics.gauges[line->substr(nameStart)] = *value;
        } else if (tokens[0] == "hist") {
            if (tokens.size() < 3 + obs::kHistBuckets + 1)
                return std::nullopt;
            const auto count = corpus::parseDecimal(tokens[1]);
            const auto sum = corpus::parseDecimal(tokens[2]);
            if (!count || !sum)
                return std::nullopt;
            obs::HistogramData data;
            data.count = *count;
            data.sum = *sum;
            size_t consumed = 5 + tokens[1].size() + tokens[2].size() + 2;
            for (size_t i = 0; i < obs::kHistBuckets; ++i) {
                const auto bucket = corpus::parseDecimal(tokens[3 + i]);
                if (!bucket)
                    return std::nullopt;
                data.buckets[i] = *bucket;
                consumed += tokens[3 + i].size() + 1;
            }
            if (consumed >= line->size())
                return std::nullopt;
            frame.metrics.histograms[line->substr(consumed)]
                .mergeFrom(data);
        }
        // Unknown line kinds are skipped: a newer worker may emit
        // fields this coordinator predates.
    }
    if (!sawHeartbeat)
        return std::nullopt;
    return frame;
}

} // namespace nnsmith::fuzz::wire
