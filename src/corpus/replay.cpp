#include "corpus/replay.h"

#include <filesystem>
#include <set>

#include "corpus/parser.h"
#include "reduce/reducer.h"
#include "support/logging.h"

namespace nnsmith::corpus {

using fuzz::BugRecord;

namespace {

std::string
joinSorted(const std::set<std::string>& items)
{
    std::string joined;
    for (const auto& item : items) {
        if (!joined.empty())
            joined += " ";
        joined += item;
    }
    return joined;
}

} // namespace

std::string
replayStatusName(ReplayStatus status)
{
    switch (status) {
      case ReplayStatus::kStillFires: return "still-fires";
      case ReplayStatus::kChanged: return "changed";
      case ReplayStatus::kFixed: return "fixed";
      case ReplayStatus::kParseError: return "parse-error";
    }
    NNSMITH_PANIC("bad ReplayStatus");
}

ReplayOutcome
replayRepro(const BugRecord& bug,
            const std::vector<backends::Backend*>& backends)
{
    ReplayOutcome outcome;
    outcome.fingerprint = bug.dedupKey;
    outcome.kind = bug.kind;
    if (bug.repro == nullptr) {
        outcome.status = ReplayStatus::kParseError;
        outcome.detail = "repro carries no replayable artifact";
        return outcome;
    }
    const auto run = reduce::rerunRepro(bug, backends);
    if (reduce::findFingerprint(run.records, reduce::fingerprintKey(bug))) {
        outcome.status = ReplayStatus::kStillFires;
        return outcome;
    }
    std::set<std::string> signals;
    for (const auto& record : run.records)
        signals.insert(reduce::fingerprintKey(record));
    if (!run.masked.empty())
        signals.insert(run.masked);
    outcome.status =
        signals.empty() ? ReplayStatus::kFixed : ReplayStatus::kChanged;
    outcome.detail = joinSorted(signals);
    return outcome;
}

ReplayResult
replayCorpus(const std::string& dir,
             const std::vector<backends::Backend*>& backends)
{
    ReplayResult result;
    for (const auto& entry : loadCorpusIndex(dir)) {
        ReplayOutcome outcome;
        outcome.fingerprint = entry.fingerprint;
        outcome.file = entry.file;
        outcome.kind = entry.kind;
        try {
            const auto path =
                (std::filesystem::path(dir) / entry.file).string();
            const BugRecord bug = parseRepro(readCorpusFile(path));
            if (bug.dedupKey != entry.fingerprint)
                throw ParseError("index fingerprint '" +
                                 entry.fingerprint +
                                 "' disagrees with the file's '" +
                                 bug.dedupKey + "'");
            if (bug.kind != entry.kind)
                throw ParseError("index kind '" + entry.kind +
                                 "' disagrees with the file's '" +
                                 bug.kind + "'");
            outcome = replayRepro(bug, backends);
            outcome.file = entry.file;
        } catch (const ParseError& error) {
            outcome.status = ReplayStatus::kParseError;
            outcome.detail = error.what();
        } catch (const std::exception& error) {
            // Malformed input is a verdict, not a crash: whatever a
            // hand-edited repro trips downstream (an interpreter or
            // backend assertion), the corpus entry takes the blame and
            // the rest of the replay — and the campaign — proceeds.
            outcome.status = ReplayStatus::kParseError;
            outcome.detail = std::string("replay failed: ") + error.what();
        }
        switch (outcome.status) {
          case ReplayStatus::kStillFires: ++result.stillFires; break;
          case ReplayStatus::kChanged: ++result.changed; break;
          case ReplayStatus::kFixed: ++result.fixed; break;
          case ReplayStatus::kParseError: ++result.parseErrors; break;
        }
        result.outcomes.push_back(std::move(outcome));
    }
    return result;
}

std::string
renderRegressions(const ReplayResult& result)
{
    std::string out = "fingerprint\tfile\tkind\tstatus\tdetail\n";
    for (const auto& outcome : result.outcomes) {
        out += outcome.fingerprint + "\t" + outcome.file + "\t" +
               outcome.kind + "\t" + replayStatusName(outcome.status) +
               "\t" + outcome.detail + "\n";
    }
    return out;
}

void
writeRegressions(const std::string& dir, const ReplayResult& result)
{
    const auto path = std::filesystem::path(dir) / "regressions.tsv";
    writeCorpusFile(path.string(), renderRegressions(result));
}

} // namespace nnsmith::corpus
