#include "corpus/parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "backends/graph_pass.h"
#include "ops/registry.h"
#include "reduce/reducer.h"
#include "tensor/tensor.h"
#include "tirlite/tir_passes.h"

namespace nnsmith::corpus {

using fuzz::BugRecord;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorType;
using tirlite::TirExpr;
using tirlite::TirExprKind;
using tirlite::TirExprRef;
using tirlite::TirProgram;
using tirlite::TirStmt;
using tirlite::TirStmtRef;

namespace {

[[noreturn]] void
fail(const std::string& what)
{
    throw ParseError("repro parse: " + what);
}

/** Split into lines; a trailing newline adds no empty line. */
std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start <= text.size()) {
        const auto nl = text.find('\n', start);
        if (nl == std::string::npos) {
            if (start < text.size())
                lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

bool
startsWith(const std::string& s, const std::string& prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Strict base-10 integer over the whole token. */
int64_t
parseIntToken(const std::string& token, const char* what)
{
    if (token.empty())
        fail(std::string("empty ") + what);
    size_t pos = token[0] == '-' ? 1 : 0;
    if (pos == token.size())
        fail(std::string("malformed ") + what + " '" + token + "'");
    for (size_t i = pos; i < token.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(token[i])))
            fail(std::string("malformed ") + what + " '" + token + "'");
    }
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(token.c_str(), &end, 10);
    if (errno != 0 || end != token.c_str() + token.size())
        fail(std::string("out-of-range ") + what + " '" + token + "'");
    return value;
}

/** Finite double over the whole token; NaN/Inf are parse errors. */
double
parseFiniteDouble(const std::string& token, const char* what)
{
    if (token.empty())
        fail(std::string("empty ") + what);
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
        fail(std::string("malformed ") + what + " '" + token + "'");
    if (!std::isfinite(value))
        fail(std::string("non-finite ") + what + " '" + token +
             "' (NaN/Inf literals are not replayable)");
    return value;
}

std::vector<std::string>
splitOn(const std::string& s, char sep)
{
    std::vector<std::string> parts;
    size_t start = 0;
    while (true) {
        const auto at = s.find(sep, start);
        parts.push_back(s.substr(start, at == std::string::npos
                                            ? std::string::npos
                                            : at - start));
        if (at == std::string::npos)
            break;
        start = at + 1;
    }
    return parts;
}

/** Split on commas outside '[...]' — "%0:f32[1,2], %1:f32[2]" has
 *  shape commas that must not separate list items. */
std::vector<std::string>
splitTopLevel(const std::string& s)
{
    std::vector<std::string> parts;
    size_t start = 0;
    int depth = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '[')
            ++depth;
        else if (s[i] == ']')
            --depth;
        else if (s[i] == ',' && depth == 0) {
            parts.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    parts.push_back(s.substr(start));
    return parts;
}

/** "f32[2,3]" -> concrete dtype + shape. */
std::pair<DType, Shape>
parseTypeToken(const std::string& token)
{
    const auto open = token.find('[');
    if (open == std::string::npos || token.back() != ']')
        fail("malformed tensor type '" + token + "'");
    DType dtype;
    try {
        dtype = tensor::dtypeFromName(token.substr(0, open));
    } catch (const FatalError&) {
        fail("unknown dtype in tensor type '" + token + "'");
    }
    Shape shape;
    const std::string dims = token.substr(open + 1,
                                          token.size() - open - 2);
    if (!dims.empty()) {
        for (const auto& dim : splitOn(dims, ',')) {
            const int64_t value = parseIntToken(dim, "shape dim");
            if (value < 0)
                fail("negative dim in tensor type '" + token + "'");
            shape.dims.push_back(value);
        }
    }
    return {dtype, shape};
}

// ---- graph text -----------------------------------------------------------

struct GraphOutput {
    int id = 0;
    DType dtype = DType::kF32;
    Shape shape;
};

GraphOutput
parseGraphOutput(const std::string& token)
{
    // "%7:f32[2,3]"
    if (token.size() < 2 || token[0] != '%')
        fail("malformed graph output '" + token + "'");
    const auto colon = token.find(':');
    if (colon == std::string::npos)
        fail("malformed graph output '" + token + "'");
    GraphOutput out;
    out.id = static_cast<int>(
        parseIntToken(token.substr(1, colon - 1), "value id"));
    std::tie(out.dtype, out.shape) = parseTypeToken(token.substr(colon + 1));
    return out;
}

graph::Graph
parseGraphLines(const std::vector<std::string>& lines, size_t begin,
                size_t end, std::map<int, int>* id_map)
{
    graph::Graph g;
    std::map<int, int> map; // serialized value id -> rebuilt id
    const auto& registry = ops::OpRegistry::global();

    for (size_t i = begin; i < end; ++i) {
        const std::string& raw = lines[i];
        if (!startsWith(raw, "  "))
            fail("graph line " + std::to_string(i + 1) +
                 " is not indented: '" + raw + "'");
        const std::string line = raw.substr(2);
        const auto eq = line.find(" = ");
        if (eq == std::string::npos)
            fail("graph line without ' = ': '" + line + "'");

        std::vector<GraphOutput> outputs;
        for (const auto& token : splitTopLevel(line.substr(0, eq))) {
            const auto trimmed =
                token.rfind(' ', 0) == 0 ? token.substr(1) : token;
            outputs.push_back(parseGraphOutput(trimmed));
        }
        if (outputs.empty())
            fail("graph line with no outputs: '" + line + "'");

        std::string rhs = line.substr(eq + 3);
        const auto open = rhs.rfind('(');
        if (open == std::string::npos || rhs.back() != ')')
            fail("graph line without input list: '" + line + "'");
        const std::string head = rhs.substr(0, open);
        const std::string args =
            rhs.substr(open + 1, rhs.size() - open - 2);

        std::vector<int> input_ids;
        if (!args.empty()) {
            for (const auto& token : splitOn(args, ',')) {
                const auto trimmed =
                    token.rfind(' ', 0) == 0 ? token.substr(1) : token;
                if (trimmed.empty() || trimmed[0] != '%')
                    fail("malformed graph input '" + trimmed + "'");
                input_ids.push_back(static_cast<int>(
                    parseIntToken(trimmed.substr(1), "value id")));
            }
        }

        if (head == "Placeholder") {
            // Flagged cases are concrete: generation promotes every
            // placeholder before execution, and an unpromoted one
            // panics the interpreter — not a replayable repro.
            fail("placeholder leaves are not executable: '" + line + "'");
        }
        if (head == "Input" || head == "Weight") {
            if (outputs.size() != 1 || !input_ids.empty())
                fail("malformed leaf line: '" + line + "'");
            const auto kind = head == "Input" ? graph::NodeKind::kInput
                                              : graph::NodeKind::kWeight;
            if (map.count(outputs[0].id) != 0)
                fail("value %" + std::to_string(outputs[0].id) +
                     " produced twice");
            map[outputs[0].id] = g.addLeaf(
                kind,
                TensorType::concrete(outputs[0].dtype, outputs[0].shape),
                "");
            continue;
        }

        // Operator: "Name{a=1,b=2}(...)".
        const auto brace = head.find('{');
        if (brace == std::string::npos || head.back() != '}')
            fail("malformed operator spelling '" + head + "'");
        const std::string op_name = head.substr(0, brace);
        const auto* meta = registry.find(op_name);
        if (meta == nullptr)
            fail("unknown operator '" + op_name + "'");
        ops::AttrMap attrs;
        const std::string body =
            head.substr(brace + 1, head.size() - brace - 2);
        if (!body.empty()) {
            for (const auto& item : splitOn(body, ',')) {
                const auto at = item.find('=');
                if (at == std::string::npos)
                    fail("malformed attribute '" + item + "' in '" +
                         head + "'");
                attrs[item.substr(0, at)] =
                    parseIntToken(item.substr(at + 1), "attribute value");
            }
        }

        std::vector<int> inputs;
        std::vector<DType> in_dtypes;
        for (const int id : input_ids) {
            const auto found = map.find(id);
            if (found == map.end())
                fail("graph input %" + std::to_string(id) +
                     " not yet produced (not topological order?)");
            inputs.push_back(found->second);
            in_dtypes.push_back(g.value(found->second).type.dtype());
        }
        std::vector<TensorType> out_types;
        std::vector<DType> out_dtypes;
        for (const auto& out : outputs) {
            out_types.push_back(TensorType::concrete(out.dtype, out.shape));
            out_dtypes.push_back(out.dtype);
        }

        // Registry reconstruction and graph insertion assert arity and
        // attribute completeness; on malformed input those internal
        // checks must surface as structured parse errors.
        int node_id = -1;
        try {
            auto op = meta->reconstruct(attrs);
            op->setDTypes(ops::DTypeCombo{in_dtypes, out_dtypes});
            node_id = g.addOp(std::shared_ptr<ops::OpBase>(std::move(op)),
                              inputs, out_types);
        } catch (const ParseError&) {
            throw;
        } catch (const std::exception& error) {
            // Registry reconstruction asserts arity/attribute
            // completeness in op-specific ways (PanicError, map::at,
            // ...); at this boundary they all mean "malformed input".
            fail("cannot rebuild operator '" + head +
                 "': " + error.what());
        }
        const auto& node = g.node(node_id);
        for (size_t o = 0; o < outputs.size(); ++o) {
            if (map.count(outputs[o].id) != 0)
                fail("value %" + std::to_string(outputs[o].id) +
                     " produced twice");
            map[outputs[o].id] =
                node.outputs[o];
        }
    }
    if (id_map != nullptr)
        *id_map = std::move(map);
    return g;
}

// ---- TIR text -------------------------------------------------------------

TirExprRef
parseTirExpr(const std::string& s, size_t& pos, size_t n_buffers,
             int depth)
{
    // Untrusted input: bound recursion so crafted nesting throws a
    // ParseError instead of overflowing the stack (well past
    // anything randomProgram/mutate emit).
    if (depth > 200)
        fail("TIR expression nests too deeply in '" + s + "'");
    auto expect = [&](char c) {
        if (pos >= s.size() || s[pos] != c)
            fail("TIR expression: expected '" + std::string(1, c) +
                 "' at offset " + std::to_string(pos) + " in '" + s + "'");
        ++pos;
    };
    if (pos >= s.size())
        fail("truncated TIR expression in '" + s + "'");

    // Intrinsics.
    for (const auto& [name, kind] :
         {std::pair<const char*, TirExprKind>{"sqrtf(", TirExprKind::kSqrtf},
          {"expf(", TirExprKind::kExpf},
          {"tanhf(", TirExprKind::kTanhf}}) {
        const size_t len = std::strlen(name);
        if (s.compare(pos, len, name) == 0) {
            pos += len;
            auto a = parseTirExpr(s, pos, n_buffers, depth + 1);
            expect(')');
            return TirExpr::intrinsic(kind, std::move(a));
        }
    }

    const char c = s[pos];
    if (c == '(') {
        ++pos;
        auto a = parseTirExpr(s, pos, n_buffers, depth + 1);
        expect(' ');
        const auto sp = s.find(' ', pos);
        if (sp == std::string::npos)
            fail("truncated TIR binary operator in '" + s + "'");
        const std::string op = s.substr(pos, sp - pos);
        pos = sp + 1;
        TirExprKind kind;
        if (op == "+") kind = TirExprKind::kAdd;
        else if (op == "-") kind = TirExprKind::kSub;
        else if (op == "*") kind = TirExprKind::kMul;
        else if (op == "/") kind = TirExprKind::kDiv;
        else if (op == "%") kind = TirExprKind::kMod;
        else if (op == "min") kind = TirExprKind::kMin;
        else if (op == "max") kind = TirExprKind::kMax;
        else fail("unknown TIR operator '" + op + "' in '" + s + "'");
        auto b = parseTirExpr(s, pos, n_buffers, depth + 1);
        expect(')');
        return TirExpr::binary(kind, std::move(a), std::move(b));
    }
    if (c == 'b' && pos + 1 < s.size() &&
        std::isdigit(static_cast<unsigned char>(s[pos + 1]))) {
        ++pos;
        size_t start = pos;
        while (pos < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[pos])))
            ++pos;
        const int64_t buffer = parseIntToken(
            s.substr(start, pos - start), "buffer id");
        if (static_cast<size_t>(buffer) >= n_buffers)
            fail("load from undeclared buffer b" +
                 std::to_string(buffer) + " in '" + s + "'");
        expect('[');
        auto index = parseTirExpr(s, pos, n_buffers, depth + 1);
        expect(']');
        return TirExpr::load(static_cast<int>(buffer), std::move(index));
    }
    if (c == 'i' && pos + 1 < s.size() &&
        std::isdigit(static_cast<unsigned char>(s[pos + 1]))) {
        ++pos;
        size_t start = pos;
        while (pos < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[pos])))
            ++pos;
        return TirExpr::loopVar(static_cast<int>(parseIntToken(
            s.substr(start, pos - start), "loop var depth")));
    }
    // Numeric literal: integer-looking tokens are int immediates, the
    // rest (decimal point / exponent) float immediates.
    size_t start = pos;
    while (pos < s.size()) {
        const char d = s[pos];
        const bool in_exponent =
            pos > start && (s[pos - 1] == 'e' || s[pos - 1] == 'E');
        if (std::isdigit(static_cast<unsigned char>(d)) || d == '.' ||
            d == 'e' || d == 'E' || (d == '-' && (pos == start ||
                                                  in_exponent)) ||
            (d == '+' && in_exponent)) {
            ++pos;
        } else {
            break;
        }
    }
    const std::string token = s.substr(start, pos - start);
    bool integral = !token.empty();
    for (size_t i = token[0] == '-' ? 1 : 0; i < token.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(token[i])))
            integral = false;
    }
    if (integral)
        return TirExpr::intImm(parseIntToken(token, "int immediate"));
    return TirExpr::floatImm(parseFiniteDouble(token, "float immediate"));
}

TirStmtRef parseTirBlock(const std::vector<std::string>& lines,
                         size_t& pos, size_t end, int indent,
                         size_t n_buffers, int depth);

TirStmtRef
parseTirStmt(const std::vector<std::string>& lines, size_t& pos,
             size_t end, int indent, size_t n_buffers, int depth)
{
    const std::string pad(static_cast<size_t>(indent), ' ');
    const std::string line = lines[pos].substr(pad.size());
    if (startsWith(line, "for i")) {
        // "for i0 in 0..4 {"
        std::istringstream is(line.substr(5));
        std::string depth_tok;
        is >> depth_tok;
        std::string in_tok, range_tok, brace_tok;
        is >> in_tok >> range_tok >> brace_tok;
        if (in_tok != "in" || brace_tok != "{" || !is.eof() ||
            !startsWith(range_tok, "0.."))
            fail("malformed for line '" + line + "'");
        const int loop_depth = static_cast<int>(
            parseIntToken(depth_tok, "loop depth"));
        if (loop_depth < 0)
            fail("negative loop depth in '" + line +
                 "' (the interpreter indexes its loop-var environment "
                 "by depth)");
        const int64_t extent =
            parseIntToken(range_tok.substr(3), "loop extent");
        if (extent < 0)
            fail("negative loop extent in '" + line + "'");
        ++pos;
        auto body =
            parseTirBlock(lines, pos, end, indent + 2, n_buffers,
                          depth + 1);
        if (pos >= end || lines[pos] != pad + "}")
            fail("for loop '" + line + "' is missing its closing '}'");
        ++pos;
        return TirStmt::forLoop(loop_depth, extent, std::move(body));
    }
    // "b1[(i0 % 4)] = expr;"
    if (line.size() < 2 || line[0] != 'b' ||
        !std::isdigit(static_cast<unsigned char>(line[1])))
        fail("unrecognized TIR statement '" + line + "'");
    size_t at = 1;
    while (at < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[at])))
        ++at;
    const int64_t buffer =
        parseIntToken(line.substr(1, at - 1), "buffer id");
    if (static_cast<size_t>(buffer) >= n_buffers)
        fail("store to undeclared buffer b" + std::to_string(buffer) +
             " in '" + line + "'");
    if (at >= line.size() || line[at] != '[')
        fail("malformed store '" + line + "'");
    ++at;
    auto index = parseTirExpr(line, at, n_buffers, 0);
    if (line.compare(at, 4, "] = ") != 0)
        fail("malformed store '" + line + "'");
    at += 4;
    auto value = parseTirExpr(line, at, n_buffers, 0);
    if (at + 1 != line.size() || line[at] != ';')
        fail("store line has trailing garbage: '" + line + "'");
    ++pos;
    return TirStmt::store(static_cast<int>(buffer), std::move(index),
                          std::move(value));
}

TirStmtRef
parseTirBlock(const std::vector<std::string>& lines, size_t& pos,
              size_t end, int indent, size_t n_buffers, int depth)
{
    if (depth > 100)
        fail("TIR loops nest too deeply at line " +
             std::to_string(pos + 1));
    const std::string pad(static_cast<size_t>(indent), ' ');
    std::vector<TirStmtRef> stmts;
    while (pos < end) {
        const std::string& line = lines[pos];
        if (!startsWith(line, pad) || line.size() == pad.size() ||
            line[pad.size()] == ' ' || line[pad.size()] == '}')
            break;
        stmts.push_back(
            parseTirStmt(lines, pos, end, indent, n_buffers, depth));
    }
    if (stmts.empty())
        fail("empty TIR block at line " + std::to_string(pos + 1));
    return stmts.size() == 1 ? std::move(stmts[0])
                             : TirStmt::seq(std::move(stmts));
}

TirProgram
parseTirProgramLines(const std::vector<std::string>& lines, size_t begin,
                     size_t end)
{
    TirProgram program;
    size_t pos = begin;
    bool inputs_done = false;
    while (pos < end && startsWith(lines[pos], "buffer b")) {
        // "buffer b0[4] (input)" / "buffer b1[4]"
        const std::string& line = lines[pos];
        const auto open = line.find('[');
        const auto close = line.find(']');
        if (open == std::string::npos || close == std::string::npos ||
            close < open)
            fail("malformed buffer declaration '" + line + "'");
        const int64_t id =
            parseIntToken(line.substr(8, open - 8), "buffer id");
        if (static_cast<size_t>(id) != program.bufferSizes.size())
            fail("buffer declarations out of order at '" + line + "'");
        const int64_t size = parseIntToken(
            line.substr(open + 1, close - open - 1), "buffer size");
        if (size <= 0)
            fail("non-positive buffer size in '" + line + "'");
        const std::string tail = line.substr(close + 1);
        if (tail == " (input)") {
            if (inputs_done)
                fail("input buffer after a non-input one: '" + line + "'");
            ++program.numInputs;
        } else if (tail.empty()) {
            inputs_done = true;
        } else {
            fail("trailing garbage in buffer declaration '" + line + "'");
        }
        program.bufferSizes.push_back(size);
        ++pos;
    }
    if (program.bufferSizes.empty())
        fail("TIR program without buffer declarations");
    program.body = parseTirBlock(lines, pos, end, 0,
                                 program.bufferSizes.size(), 0);
    if (pos != end)
        fail("trailing garbage after TIR program at line " +
             std::to_string(pos + 1));
    return program;
}

// ---- repro document -------------------------------------------------------

/** @p line minus its @p prefix; fails when the prefix is missing. */
std::string
fieldValue(const std::string& line, const char* prefix)
{
    if (!startsWith(line, prefix))
        fail(std::string("expected '") + prefix + "' line, got '" + line +
             "'");
    return line.substr(std::strlen(prefix));
}

/** Cursor over the document's lines with prefix-checked accessors. */
struct Cursor {
    const std::vector<std::string>& lines;
    size_t pos = 0;

    bool done() const { return pos >= lines.size(); }

    const std::string&
    next(const char* what)
    {
        if (done())
            fail(std::string("truncated file: expected ") + what);
        return lines[pos++];
    }

    std::string
    field(const char* prefix)
    {
        return fieldValue(next(prefix), prefix);
    }

    /** Consume the (one or more) blank lines between sections. */
    void
    blanks()
    {
        if (!next("blank line").empty())
            fail("expected blank line before section at line " +
                 std::to_string(pos));
        while (!done() && lines[pos].empty())
            ++pos;
    }
};

std::vector<std::string>
parseDefectList(const std::string& rest)
{
    std::vector<std::string> defects;
    std::istringstream is(rest);
    std::string token;
    while (is >> token)
        defects.push_back(token);
    return defects;
}

exec::LeafValues
parseLeafLine(const std::string& raw, const graph::Graph& g,
              const std::map<int, int>& id_map)
{
    // "  %3: f32[2,2] = 1 2 3 4"
    if (!startsWith(raw, "  %"))
        fail("malformed leaf line '" + raw + "'");
    const auto colon = raw.find(": ");
    if (colon == std::string::npos)
        fail("malformed leaf line '" + raw + "'");
    const int old_id = static_cast<int>(
        parseIntToken(raw.substr(3, colon - 3), "leaf value id"));
    const auto eq = raw.find(" = ", colon);
    if (eq == std::string::npos)
        fail("leaf line without values: '" + raw + "'");
    const auto [dtype, shape] =
        parseTypeToken(raw.substr(colon + 2, eq - colon - 2));

    const auto mapped = id_map.find(old_id);
    if (mapped == id_map.end())
        fail("leaf %" + std::to_string(old_id) +
             " does not name a graph value");
    const auto& value = g.value(mapped->second);
    if (g.node(value.producer).kind == graph::NodeKind::kOp)
        fail("leaf %" + std::to_string(old_id) +
             " is produced by an operator, not a leaf");
    if (value.type.dtype() != dtype ||
        value.type.concreteShape().dims != shape.dims)
        fail("leaf %" + std::to_string(old_id) +
             " type disagrees with the graph declaration");

    Tensor tensor = Tensor::zeros(dtype, shape);
    std::istringstream is(raw.substr(eq + 3));
    std::string token;
    int64_t count = 0;
    while (is >> token) {
        if (count >= tensor.numel())
            fail("leaf %" + std::to_string(old_id) + ": more than " +
                 std::to_string(tensor.numel()) + " elements");
        tensor.setScalar(count++,
                         parseFiniteDouble(token, "leaf element"));
    }
    if (count != tensor.numel())
        fail("leaf %" + std::to_string(old_id) + ": got " +
             std::to_string(count) + " elements, want " +
             std::to_string(tensor.numel()));
    exec::LeafValues one;
    one.emplace(mapped->second, std::move(tensor));
    return one;
}

/**
 * Parse a "--- graph ---" body (the cursor sits on "graph {") followed
 * by its "--- leaves ---" section, checking every input and weight is
 * bound. Shared by the plain-graph and graph-pass-sequence layouts.
 */
void
parseGraphAndLeaves(Cursor& cursor, const std::vector<std::string>& lines,
                    graph::Graph& graph_out, exec::LeafValues& leaves_out)
{
    const size_t begin = cursor.pos;
    if (cursor.next("graph body") != "graph {")
        fail("graph section does not start with 'graph {'");
    while (!cursor.done() && lines[cursor.pos] != "}")
        ++cursor.pos;
    if (cursor.done())
        fail("graph section does not end with '}'");
    const size_t body_end = cursor.pos++;
    std::map<int, int> id_map;
    graph_out = parseGraphLines(lines, begin + 1, body_end, &id_map);

    cursor.blanks();
    if (cursor.next("leaves section") != schema::kSectionLeaves)
        fail("expected leaves section after the graph");
    while (!cursor.done() && !lines[cursor.pos].empty()) {
        auto one = parseLeafLine(lines[cursor.pos++], graph_out, id_map);
        for (auto& [id, tensor] : one) {
            if (!leaves_out.emplace(id, std::move(tensor)).second)
                fail("leaf bound twice in the leaves section");
        }
    }
    // Every input and weight must be bound or the repro cannot be
    // re-executed.
    for (const int id : graph_out.inputValues())
        if (leaves_out.count(id) == 0)
            fail("graph input %" + std::to_string(id) +
                 " has no leaf binding");
    for (const int id : graph_out.weightValues())
        if (leaves_out.count(id) == 0)
            fail("graph weight %" + std::to_string(id) +
                 " has no leaf binding");
}

} // namespace

graph::Graph
parseGraphText(const std::string& text, std::map<int, int>* id_map)
{
    const auto lines = splitLines(text);
    if (lines.empty() || lines.front() != "graph {")
        fail("graph section does not start with 'graph {'");
    if (lines.back() != "}")
        fail("graph section does not end with '}'");
    return parseGraphLines(lines, 1, lines.size() - 1, id_map);
}

TirProgram
parseTirProgramText(const std::string& text)
{
    const auto lines = splitLines(text);
    return parseTirProgramLines(lines, 0, lines.size());
}

BugRecord
parseBugHeader(const std::function<std::string(const char* what)>& next_line)
{
    auto field = [&](const char* prefix) {
        return fieldValue(next_line(prefix), prefix);
    };
    BugRecord bug;
    bug.dedupKey = field(schema::kFingerprint);
    if (bug.dedupKey.empty())
        fail("empty fingerprint");
    bug.backend = field(schema::kBackend);
    bug.kind = field(schema::kKind);
    if (bug.kind != "crash" && bug.kind != "wrong-result" &&
        bug.kind != "export-crash")
        fail("unknown bug kind '" + bug.kind + "'");
    bug.detail = field(schema::kDetail);
    bug.defects = parseDefectList(field(schema::kDefects));
    return bug;
}

BugRecord
parseRepro(const std::string& text)
{
    const auto lines = splitLines(text);
    Cursor cursor{lines};

    if (cursor.next("magic line") != schema::kMagic)
        fail(std::string("missing magic line '") + schema::kMagic + "'");
    BugRecord bug = parseBugHeader(
        [&](const char* what) { return cursor.next(what); });

    bool has_discovery = false;
    std::vector<std::string> discovery;
    if (!cursor.done() &&
        startsWith(lines[cursor.pos], schema::kDiscoveryDefects)) {
        has_discovery = true;
        discovery =
            parseDefectList(cursor.field(schema::kDiscoveryDefects));
    }

    const std::string reduction = cursor.field(schema::kReduction);
    if (reduction == schema::kReductionNone) {
        if (has_discovery)
            fail("raw repro cannot carry a discovery-defects line");
    } else {
        // "<N> -> <M> op nodes (ddmin)" / "<N> -> <M> passes (ddmin)"
        std::istringstream is(reduction);
        std::string from, arrow, to;
        is >> from >> arrow >> to;
        std::string unit;
        std::getline(is, unit);
        if (arrow != "->" ||
            (unit != " op nodes (ddmin)" && unit != " passes (ddmin)"))
            fail("malformed reduction line '" + reduction + "'");
        const int64_t original =
            parseIntToken(from, "reduction original size");
        const int64_t shrunk = parseIntToken(to, "reduction size");
        if (original < 0 || shrunk < 0)
            fail("negative size in reduction line '" + reduction + "'");
        bug.minimized = true;
        bug.originalSize = static_cast<size_t>(original);
        bug.minimizedSize = static_cast<size_t>(shrunk);
        // The header's defects line is the minimized repro's own trace.
        bug.minimizedDefects = bug.defects;
        if (has_discovery) {
            bug.defects = std::move(discovery);
            if (bug.defects == bug.minimizedDefects)
                fail("discovery-defects line equals the defects line");
        }
    }

    cursor.blanks();
    const std::string& section = cursor.next("section marker");
    if (section == schema::kSectionGraph) {
        fuzz::GraphRepro repro;
        parseGraphAndLeaves(cursor, lines, repro.graph, repro.leaves);

        // The trailing onnx section is regenerated from the graph on
        // re-serialization; accept and skip whatever is here.
        if (!cursor.done()) {
            cursor.blanks();
            if (cursor.next("onnx section") != schema::kSectionOnnx)
                fail("expected onnx section after the leaves");
            cursor.pos = lines.size();
        }
        bug.repro = std::make_shared<const fuzz::Repro>(std::move(repro));
        return bug;
    }

    if (section != schema::kSectionSequence)
        fail("unknown section marker '" + section + "'");
    const std::string joined = cursor.next("pass sequence");
    if (joined.empty())
        fail("empty pass sequence");
    const auto names = splitOn(joined, ',');

    // The backend tag selects the pass registry: OrtLite/TrtLite
    // sequences are graph passes over a model, TVMLite sequences are
    // TIR passes over a program. Any other tag has no registry.
    if (backends::isGraphPassBackend(bug.backend)) {
        fuzz::GraphSeqRepro repro;
        for (const auto& name : names) {
            if (backends::findGraphPass(bug.backend, name) == nullptr)
                fail("unknown " + bug.backend + " graph pass '" + name +
                     "'");
            repro.sequence.push_back(name);
        }
        cursor.blanks();
        if (cursor.next("graph section") != schema::kSectionGraph)
            fail("expected graph section after the pass sequence");
        parseGraphAndLeaves(cursor, lines, repro.graph, repro.leaves);
        if (!cursor.done())
            fail("trailing content after the leaves section");
        bug.repro = std::make_shared<const fuzz::Repro>(std::move(repro));
        return bug;
    }
    if (bug.backend != "TVMLite")
        fail("backend '" + bug.backend +
             "' has no sequenceable pass registry");

    fuzz::SeqRepro repro;
    for (const auto& name : names) {
        if (tirlite::findTirPass(name) == nullptr)
            fail("unknown TIR pass '" + name + "'");
        repro.sequence.push_back(name);
    }

    cursor.blanks();
    if (cursor.next("tir program section") != schema::kSectionProgram)
        fail("expected tir program section after the pass sequence");
    const size_t begin = cursor.pos;
    while (!cursor.done() && !lines[cursor.pos].empty())
        ++cursor.pos;
    repro.program = parseTirProgramLines(lines, begin, cursor.pos);

    // The program's rendering ends in a newline, so a repro without
    // initial buffers ends in a blank line, not a buffers section.
    if (!cursor.done())
        cursor.blanks();
    if (!cursor.done()) {
        if (cursor.next("buffers section") != schema::kSectionBuffers)
            fail("expected initial-buffers section after the program");
        while (!cursor.done() && !lines[cursor.pos].empty()) {
            // "  buffer[0]: v v v"
            const std::string& line = lines[cursor.pos++];
            const std::string prefix =
                "  buffer[" + std::to_string(repro.initial.size()) +
                "]:";
            if (!startsWith(line, prefix))
                fail("malformed or out-of-order buffer line '" + line +
                     "'");
            if (repro.initial.size() >= repro.program.bufferSizes.size())
                fail("more initial buffers than declared buffers");
            std::vector<double> values;
            std::istringstream is(line.substr(prefix.size()));
            std::string token;
            while (is >> token)
                values.push_back(
                    parseFiniteDouble(token, "buffer element"));
            const auto want = static_cast<size_t>(
                repro.program.bufferSizes[repro.initial.size()]);
            if (values.size() != want)
                fail("buffer[" + std::to_string(repro.initial.size()) +
                     "] has " + std::to_string(values.size()) +
                     " elements, want " + std::to_string(want));
            repro.initial.push_back(std::move(values));
        }
        if (repro.initial.size() != repro.program.bufferSizes.size())
            fail("initial-buffers section covers " +
                 std::to_string(repro.initial.size()) + " of " +
                 std::to_string(repro.program.bufferSizes.size()) +
                 " buffers");
    }
    // The genuine-miscompile record (fingerprint-tagged — replay keys
    // off the dedup key, not the editable defects line) is pinned by
    // the differential interp oracle, which needs the captured inputs.
    if (bug.kind == "wrong-result" &&
        reduce::crashKindOfKey(bug.dedupKey) == "tir.seq.miscompile" &&
        repro.initial.empty())
        fail("miscompile repro without initial buffers is not "
             "replayable");
    bug.repro = std::make_shared<const fuzz::Repro>(std::move(repro));
    return bug;
}

} // namespace nnsmith::corpus
