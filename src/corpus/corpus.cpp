#include "corpus/corpus.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "backends/defects.h"
#include "onnx/exporter.h"
#include "support/logging.h"

namespace nnsmith::corpus {

using backends::BackendError;
using fuzz::BugRecord;

namespace {

void
renderLeaves(std::ostringstream& os, const exec::LeafValues& leaves)
{
    // Repros must be replayable: every element, at %.17g so float
    // bit patterns round-trip (matching the seq-repro buffer dump;
    // Tensor::toString truncates and prints 6 digits).
    char buffer[64];
    for (const auto& [value_id, tensor] : leaves) {
        os << "  %" << value_id << ": "
           << tensor::dtypeName(tensor.dtype())
           << tensor.shape().toString() << " =";
        for (int64_t i = 0; i < tensor.numel(); ++i) {
            std::snprintf(buffer, sizeof(buffer), " %.17g",
                          tensor.scalarAt(i));
            os << buffer;
        }
        os << "\n";
    }
}

/** The graph and leaves sections, each after a blank line. */
void
renderGraphAndLeaves(std::ostringstream& os, const graph::Graph& graph,
                     const exec::LeafValues& leaves)
{
    os << "\n" << schema::kSectionGraph << "\n" << graph.toString() << "\n";
    os << "\n" << schema::kSectionLeaves << "\n";
    renderLeaves(os, leaves);
}

/** The pass-sequence section and the blank line after it. */
void
renderSequence(std::ostringstream& os,
               const std::vector<std::string>& sequence)
{
    os << "\n" << schema::kSectionSequence << "\n";
    for (size_t i = 0; i < sequence.size(); ++i)
        os << (i > 0 ? "," : "") << sequence[i];
    os << "\n";
}

} // namespace

std::string
renderBugHeader(const BugRecord& bug)
{
    std::string out;
    out += schema::kFingerprint + bug.dedupKey + '\n';
    out += schema::kBackend + bug.backend + '\n';
    out += schema::kKind + bug.kind + '\n';
    out += schema::kDetail + bug.detail + '\n';
    out += schema::kDefects;
    for (const auto& defect :
         bug.minimized ? bug.minimizedDefects : bug.defects) {
        out += ' ';
        out += defect;
    }
    out += '\n';
    return out;
}

std::string
renderRepro(const BugRecord& bug)
{
    NNSMITH_ASSERT(bug.repro != nullptr,
                   "renderRepro: bug record carries no repro");
    std::ostringstream os;
    os << schema::kMagic << "\n" << renderBugHeader(bug);
    // The header's defects line is the minimized repro's own trigger
    // trace; the discovery-time trace is kept alongside when reduction
    // stripped co-triggered noise from it.
    if (bug.minimized && bug.minimizedDefects != bug.defects) {
        os << schema::kDiscoveryDefects;
        for (const auto& defect : bug.defects)
            os << " " << defect;
        os << "\n";
    }
    if (bug.minimized) {
        os << schema::kReduction << bug.originalSize << " -> "
           << bug.minimizedSize
           << (std::holds_alternative<fuzz::GraphRepro>(*bug.repro)
                   ? " op nodes"
                   : " passes")
           << " (ddmin)\n";
    } else {
        os << schema::kReduction << schema::kReductionNone << "\n";
    }
    if (const auto* graph = std::get_if<fuzz::GraphRepro>(bug.repro.get())) {
        renderGraphAndLeaves(os, graph->graph, graph->leaves);
        // The deployable artifact; for export-crash bugs the export
        // *is* the defect, so the graph rendering above is the repro.
        try {
            const auto model = onnx::exportGraph(graph->graph);
            os << "\n" << schema::kSectionOnnx << "\n"
               << model.serialize() << "\n";
        } catch (const BackendError& error) {
            os << "\n" << schema::kSectionOnnx << "\n(export crashes: "
               << error.kind()
               << " — replay the graph above through the exporter)\n";
        }
    } else if (const auto* graph_seq =
                   std::get_if<fuzz::GraphSeqRepro>(bug.repro.get())) {
        // A graph-level pass-sequence repro (backends/graph_pass.h):
        // sequence first (the reduced dimension), then the model and
        // its leaves. Replay re-exports the graph, so no onnx section.
        renderSequence(os, graph_seq->sequence);
        renderGraphAndLeaves(os, graph_seq->graph, graph_seq->leaves);
    } else {
        const auto& repro = std::get<fuzz::SeqRepro>(*bug.repro);
        renderSequence(os, repro.sequence);
        os << "\n" << schema::kSectionProgram << "\n"
           << repro.program.toString() << "\n";
        if (!repro.initial.empty()) {
            os << "\n" << schema::kSectionBuffers << "\n";
            for (size_t b = 0; b < repro.initial.size(); ++b) {
                os << "  buffer[" << b << "]:";
                char buffer[64];
                for (const double v : repro.initial[b]) {
                    std::snprintf(buffer, sizeof(buffer), " %.17g", v);
                    os << buffer;
                }
                os << "\n";
            }
        }
    }
    return os.str();
}

std::vector<CorpusEntry>
parseIndexTsv(const std::string& text)
{
    std::vector<CorpusEntry> entries;
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line) || line != schema::kIndexHeader)
        throw ParseError("index.tsv: missing or wrong header line (want '" +
                         std::string(schema::kIndexHeader) + "')");
    size_t row = 1;
    while (std::getline(is, line)) {
        ++row;
        if (line.empty())
            continue;
        std::vector<std::string> cols;
        size_t start = 0;
        while (true) {
            const auto tab = line.find('\t', start);
            cols.push_back(line.substr(start, tab == std::string::npos
                                                  ? std::string::npos
                                                  : tab - start));
            if (tab == std::string::npos)
                break;
            start = tab + 1;
        }
        if (cols.size() != 5)
            throw ParseError("index.tsv row " + std::to_string(row) +
                             ": expected 5 tab-separated columns, got " +
                             std::to_string(cols.size()));
        auto parse_size = [&](const std::string& field,
                              const char* what) -> size_t {
            const auto value = parseDecimal(field);
            if (!value)
                throw ParseError("index.tsv row " + std::to_string(row) +
                                 ": non-numeric " + what + " column '" +
                                 field + "'");
            return static_cast<size_t>(*value);
        };
        CorpusEntry entry;
        entry.fingerprint = cols[0];
        entry.file = cols[1];
        entry.kind = cols[2];
        entry.originalSize = parse_size(cols[3], "original");
        entry.minimizedSize = parse_size(cols[4], "minimized");
        if (entry.fingerprint.empty() || entry.file.empty())
            throw ParseError("index.tsv row " + std::to_string(row) +
                             ": empty fingerprint or file column");
        entries.push_back(std::move(entry));
    }
    return entries;
}

std::optional<uint64_t>
parseDecimal(const std::string& token)
{
    if (token.empty())
        return std::nullopt;
    for (const char c : token) {
        if (c < '0' || c > '9')
            return std::nullopt;
    }
    errno = 0;
    const unsigned long long value = std::strtoull(token.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return std::nullopt;
    return value;
}

std::vector<CorpusEntry>
loadCorpusIndex(const std::string& dir)
{
    const auto path = std::filesystem::path(dir) / "index.tsv";
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        throw ParseError("corpus: no index.tsv in '" + dir + "'");
    return parseIndexTsv(readCorpusFile(path.string()));
}

std::string
readCorpusFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ParseError("corpus: cannot read '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeCorpusFile(const std::string& path, const std::string& content)
{
    FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        fatal("corpus: cannot write " + path);
    // A full disk shows as a short fwrite or, once buffered, a failing
    // fclose; either would leave a silently truncated file.
    const size_t written =
        std::fwrite(content.data(), 1, content.size(), file);
    const bool closed = std::fclose(file) == 0;
    if (written != content.size() || !closed)
        fatal("corpus: short write to " + path);
}

} // namespace nnsmith::corpus
