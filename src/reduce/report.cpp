#include "reduce/report.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "corpus/corpus.h"
#include "support/logging.h"

namespace nnsmith::reduce {

using fuzz::BugRecord;

namespace {

/** FNV-1a over the key: a stable collision-avoidance suffix for file
 *  names that sanitize differently but compare equal. */
uint64_t
fnv1a(const std::string& text)
{
    uint64_t hash = 1469598103934665603ull;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

} // namespace

std::string
reportFileName(const std::string& fingerprint)
{
    std::string sanitized;
    sanitized.reserve(fingerprint.size());
    for (const char c : fingerprint) {
        const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' || c == '-';
        sanitized += keep ? c : '_';
    }
    if (sanitized.size() > 96)
        sanitized.resize(96);
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-%08llx",
                  static_cast<unsigned long long>(fnv1a(fingerprint) &
                                                  0xFFFFFFFFull));
    return sanitized + suffix + ".repro.txt";
}

std::vector<ReportEntry>
writeReproReports(const std::map<std::string, BugRecord>& bugs,
                  const std::string& dir)
{
    const std::filesystem::path root(dir);
    std::filesystem::create_directories(root);

    // Merge with an existing index so multi-campaign drivers (e.g. a
    // figure bench running several fuzzers into one --report-dir)
    // accumulate one complete index; same-fingerprint rows are
    // overwritten. The merge is a set union keyed by fingerprint, so
    // re-running an identical campaign rewrites identical bytes.
    std::map<std::string, std::string> index_rows; // fingerprint -> rest
    {
        std::ifstream existing(root / "index.tsv");
        std::string line;
        bool header = true;
        while (std::getline(existing, line)) {
            if (header) {
                header = false;
                continue;
            }
            const auto tab = line.find('\t');
            if (tab != std::string::npos)
                index_rows[line.substr(0, tab)] = line.substr(tab + 1);
        }
    }

    std::vector<ReportEntry> entries;
    for (const auto& [key, bug] : bugs) {
        if (bug.repro == nullptr)
            continue;
        ReportEntry entry;
        entry.fingerprint = key;
        entry.file = reportFileName(key);
        // The repro body comes from the shared corpus schema
        // (corpus/corpus.h), the same definition corpus/parser.h reads
        // back — writer and parser cannot drift apart.
        corpus::writeCorpusFile((root / entry.file).string(),
                                corpus::renderRepro(bug));
        index_rows[key] = entry.file + "\t" + bug.kind + "\t" +
                          std::to_string(bug.originalSize) + "\t" +
                          std::to_string(bug.minimizedSize);
        entries.push_back(std::move(entry));
    }
    std::ostringstream index;
    index << corpus::schema::kIndexHeader << "\n";
    for (const auto& [key, rest] : index_rows)
        index << key << "\t" << rest << "\n";
    corpus::writeCorpusFile((root / "index.tsv").string(), index.str());
    return entries;
}

} // namespace nnsmith::reduce
