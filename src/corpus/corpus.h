/**
 * @file
 * The repro-corpus schema — the single definition of the on-disk
 * minimized-repro format that the report writer (reduce/report.h) and
 * the corpus parsers (corpus/parser.h) share.
 *
 * A campaign with `--report-dir` emits one `*.repro.txt` per deduped
 * fingerprint plus an `index.tsv`; together they form the *regression
 * corpus* — the paper's "known bug" suite that every later campaign
 * re-checks before fresh fuzzing (corpus/replay.h). The format is
 * plain text so repros can be read, diffed and hand-edited:
 *
 *   # nnsmith minimized repro
 *   fingerprint: <dedup key>
 *   backend: <OrtLite|TVMLite|TrtLite|Exporter>
 *   kind: <crash|wrong-result|export-crash>
 *   detail: <one-line diagnostic>
 *   defects: <repro's own trigger trace, space-separated>
 *   [discovery defects: <discovery-time trace, when it differs>]
 *   reduction: <N -> M op nodes|passes (ddmin)> | none (raw flagged case)
 *
 *   --- graph ---            | --- pass sequence ---
 *   graph { ... }            | p1,p2,...
 *   --- leaves ---           | --- tir program ---
 *   %id: dtype[shape] = ...  | buffer b0[8] (input) ... loop nest
 *   --- onnx ---             | --- initial buffers ---
 *   onnxlite v1 ...          |   buffer[0]: v v v ...
 *
 * A third layout carries *graph-level* pass-sequence repros (the
 * backend: field selects the pass registry — TVMLite sequences are
 * TIR passes, OrtLite/TrtLite sequences are graph passes):
 *
 *   --- pass sequence ---
 *   fuse.matmul_add_gemm,misc.scheduler,...
 *   --- graph ---
 *   graph { ... }
 *   --- leaves ---
 *   %id: dtype[shape] = ...
 *
 * `renderRepro` is the only renderer of this format; the writer and
 * every test round-trips through it, so serialize -> parse ->
 * re-serialize is byte-identical for canonical (minimized) repros.
 */
#ifndef NNSMITH_CORPUS_CORPUS_H
#define NNSMITH_CORPUS_CORPUS_H

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"

namespace nnsmith::corpus {

/**
 * Structured parse failure: malformed repro files, truncated
 * sections, unknown ops/passes, non-finite buffer literals or a
 * wrong-column index.tsv all surface as this exception — never as a
 * crash or an internal panic (the malformed-input contract enforced
 * by tests/corpus_test.cpp under ASan).
 */
class ParseError : public std::runtime_error {
  public:
    explicit ParseError(const std::string& what)
        : std::runtime_error(what) {}
};

/** Field/section spellings of the repro format (see file comment). */
namespace schema {
inline constexpr const char* kMagic = "# nnsmith minimized repro";
inline constexpr const char* kFingerprint = "fingerprint: ";
inline constexpr const char* kBackend = "backend: ";
inline constexpr const char* kKind = "kind: ";
inline constexpr const char* kDetail = "detail: ";
inline constexpr const char* kDefects = "defects:";
inline constexpr const char* kDiscoveryDefects = "discovery defects:";
inline constexpr const char* kReduction = "reduction: ";
inline constexpr const char* kReductionNone = "none (raw flagged case)";
inline constexpr const char* kSectionGraph = "--- graph ---";
inline constexpr const char* kSectionLeaves = "--- leaves ---";
inline constexpr const char* kSectionOnnx = "--- onnx ---";
inline constexpr const char* kSectionSequence = "--- pass sequence ---";
inline constexpr const char* kSectionProgram = "--- tir program ---";
inline constexpr const char* kSectionBuffers = "--- initial buffers ---";
inline constexpr const char* kIndexHeader =
    "fingerprint\tfile\tkind\toriginal\tminimized";
} // namespace schema

/**
 * The five header lines every bug document carries after its magic
 * line: fingerprint, backend, kind, detail and defects (the minimized
 * repro's own trace for a minimized record). Written for repro
 * documents and for the wire's repro-less ones (fuzz/wire.h); read
 * back by corpus::parseBugHeader.
 */
std::string renderBugHeader(const fuzz::BugRecord& bug);

/**
 * Render one bug record into the on-disk repro text. Requires a
 * repro; a graph repro re-runs the ONNX export, so export-crash
 * defects may fire into the ambient trigger trace (scope with
 * DefectRegistry::TraceScope where that matters).
 */
std::string renderRepro(const fuzz::BugRecord& bug);

/** One row of a corpus `index.tsv`. */
struct CorpusEntry {
    std::string fingerprint;
    std::string file; ///< repro file name relative to the corpus dir
    std::string kind; ///< "crash" | "wrong-result" | "export-crash"
    size_t originalSize = 0;
    size_t minimizedSize = 0;
};

/**
 * Parse `index.tsv` text. Throws ParseError on a missing/wrong header,
 * a row with the wrong column count, or non-numeric size columns.
 */
std::vector<CorpusEntry> parseIndexTsv(const std::string& text);

/**
 * Load `dir`/index.tsv. Throws ParseError when the directory or index
 * is missing or malformed. Entries come back in file (fingerprint)
 * order, which is what makes corpus replay deterministic.
 */
std::vector<CorpusEntry> loadCorpusIndex(const std::string& dir);

/**
 * Strict base-10 unsigned integer over the whole of @p token: non-empty,
 * digits only (no sign, blank or prefix — strtoull would quietly wrap
 * "-1"), and within uint64_t. nullopt otherwise; each caller attaches
 * its own error, or none.
 */
std::optional<uint64_t> parseDecimal(const std::string& token);

/** Read a whole file; throws ParseError when unreadable. */
std::string readCorpusFile(const std::string& path);

/** Write @p content to @p path; fatal() when the file cannot be
 *  opened or the write or close fails (e.g. a full disk). Shared by
 *  the report writer (reduce/report.cpp) and regressions.tsv. */
void writeCorpusFile(const std::string& path, const std::string& content);

} // namespace nnsmith::corpus

#endif // NNSMITH_CORPUS_CORPUS_H
