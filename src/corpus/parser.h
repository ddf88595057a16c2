/**
 * @file
 * Text parsers for the repro-corpus format (corpus/corpus.h) — the
 * inverse of `renderRepro`.
 *
 * `parseRepro` turns one `*.repro.txt` back into a replayable
 * fuzz::BugRecord: the serialized graph rendering is rebuilt into a
 * concrete graph::Graph through the operator registry (unknown ops
 * are a ParseError, not a panic), leaf buffers are re-bound by value
 * id, TIR programs are re-parsed into tirlite::TirProgram trees, and
 * pass sequences are validated against the pass registry. Every
 * malformed input — truncated file, unknown op or pass, NaN/Inf
 * buffer literal, arity or shape mismatch — throws corpus::ParseError;
 * parsing never crashes and never trips an internal assertion.
 *
 * For canonical repros (anything the reducer minimized — its rebuilt
 * subgraphs number nodes and values densely in topological order)
 * the round trip is exact: `renderRepro(parseRepro(text)) == text`,
 * byte for byte. Raw (unminimized) graph repros may carry gappy value
 * ids from generation; they parse and replay identically but
 * re-serialize with renumbered ids.
 */
#ifndef NNSMITH_CORPUS_PARSER_H
#define NNSMITH_CORPUS_PARSER_H

#include <functional>
#include <map>
#include <string>

#include "corpus/corpus.h"
#include "graph/graph.h"
#include "tirlite/tir.h"

namespace nnsmith::corpus {

/**
 * Parse a full repro document into a replayable bug record.
 * `dedupKey` is the file's fingerprint line. Throws ParseError.
 */
fuzz::BugRecord parseRepro(const std::string& text);

/**
 * Read the five header lines corpus::renderBugHeader writes, each
 * taken from @p next_line (which returns the document's next line and
 * names it @p what in its own truncation error). Checks each line's
 * prefix, a non-empty fingerprint and a known kind ("crash" |
 * "wrong-result" | "export-crash"); the defects line lands in
 * `defects`. Shared by parseRepro and the wire's repro-less bug
 * documents. Throws ParseError.
 */
fuzz::BugRecord
parseBugHeader(const std::function<std::string(const char* what)>& next_line);

/**
 * Parse a `graph { ... }` rendering (graph::Graph::toString) into a
 * concrete graph. When @p id_map is non-null it receives the mapping
 * from serialized value ids to the rebuilt graph's value ids (the
 * identity for canonical repros). Throws ParseError.
 */
graph::Graph parseGraphText(const std::string& text,
                            std::map<int, int>* id_map = nullptr);

/**
 * Parse a TIRLite program rendering (TirProgram::toString): buffer
 * declarations followed by a loop nest. Throws ParseError.
 */
tirlite::TirProgram parseTirProgramText(const std::string& text);

} // namespace nnsmith::corpus

#endif // NNSMITH_CORPUS_PARSER_H
