#include "tirlite/tir_passes.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>

#include "backends/defects.h"
#include "coverage/coverage.h"

namespace nnsmith::tirlite {

using backends::BackendError;
using backends::DefectRegistry;
using coverage::CoverageRegistry;

namespace {

void
cov(const std::string& pass, const std::string& key)
{
    // Canonical `<backend>/pass/...` scheme shared by all three
    // backends (previously "tvmlite/tir/<pass>"; see DESIGN.md
    // "Coverage component naming" for the old->new mapping).
    CoverageRegistry::instance().hitDynamic("tvmlite/pass/" + pass, key,
                                            /*pass_only=*/true);
}

/** Bucketize extents the way AFL bucketizes hit counts. */
std::string
extentBucket(int64_t extent)
{
    if (extent <= 1)
        return "e1";
    if (extent <= 2)
        return "e2";
    if (extent <= 4)
        return "e4";
    if (extent <= 8)
        return "e8";
    if (extent <= 16)
        return "e16";
    return "big";
}

const char*
exprKindKey(TirExprKind kind)
{
    switch (kind) {
      case TirExprKind::kIntImm: return "int";
      case TirExprKind::kFloatImm: return "float";
      case TirExprKind::kLoopVar: return "var";
      case TirExprKind::kLoad: return "load";
      case TirExprKind::kAdd: return "add";
      case TirExprKind::kSub: return "sub";
      case TirExprKind::kMul: return "mul";
      case TirExprKind::kDiv: return "div";
      case TirExprKind::kMod: return "mod";
      case TirExprKind::kMin: return "min";
      case TirExprKind::kMax: return "max";
      case TirExprKind::kSqrtf: return "sqrtf";
      case TirExprKind::kExpf: return "expf";
      case TirExprKind::kTanhf: return "tanhf";
    }
    return "?";
}

bool
isImm(const TirExprRef& e)
{
    return e->kind == TirExprKind::kIntImm ||
           e->kind == TirExprKind::kFloatImm;
}

double
immValue(const TirExprRef& e)
{
    return e->kind == TirExprKind::kIntImm
               ? static_cast<double>(e->intValue)
               : e->floatValue;
}

/** Recursively constant-fold an expression. */
TirExprRef
foldExpr(const TirExprRef& e)
{
    if (!e->a)
        return e;
    TirExprRef a = foldExpr(e->a);
    TirExprRef b = e->b ? foldExpr(e->b) : nullptr;
    cov("fold", exprKindKey(e->kind));
    if (b && isImm(a) && isImm(b)) {
        const double x = immValue(a);
        const double y = immValue(b);
        cov("fold", std::string("const/") + exprKindKey(e->kind));
        switch (e->kind) {
          case TirExprKind::kAdd: return TirExpr::floatImm(x + y);
          case TirExprKind::kSub: return TirExpr::floatImm(x - y);
          case TirExprKind::kMul: return TirExpr::floatImm(x * y);
          case TirExprKind::kMin:
            return TirExpr::floatImm(std::min(x, y));
          case TirExprKind::kMax:
            return TirExpr::floatImm(std::max(x, y));
          default: break;
        }
    }
    // x * 1 / x + 0 identities.
    if (b && e->kind == TirExprKind::kMul && isImm(b) &&
        immValue(b) == 1.0) {
        cov("fold", "mul_one");
        return a;
    }
    if (b && e->kind == TirExprKind::kAdd && isImm(b) &&
        immValue(b) == 0.0) {
        cov("fold", "add_zero");
        return a;
    }
    if (e->kind == TirExprKind::kLoad)
        return TirExpr::load(e->buffer, a);
    if (!b)
        return TirExpr::intrinsic(e->kind, a);
    return TirExpr::binary(e->kind, a, b);
}

/** Walk statements, rewriting expressions with @p rewrite. */
TirStmtRef
mapStmts(const TirStmtRef& s,
         const std::function<TirExprRef(const TirExprRef&)>& rewrite)
{
    switch (s->kind) {
      case TirStmtKind::kFor:
        return TirStmt::forLoop(s->depth, s->extent,
                                mapStmts(s->body, rewrite));
      case TirStmtKind::kStore:
        return TirStmt::store(s->buffer, rewrite(s->index),
                              rewrite(s->value));
      case TirStmtKind::kSeq: {
        std::vector<TirStmtRef> out;
        for (const auto& sub : s->stmts)
            out.push_back(mapStmts(sub, rewrite));
        return TirStmt::seq(std::move(out));
      }
    }
    NNSMITH_PANIC("bad TirStmtKind");
}

/** Does @p e contain a Mod(Mod(..), ..) nest? */
bool
hasNestedMod(const TirExprRef& e)
{
    if (!e)
        return false;
    if (e->kind == TirExprKind::kMod && e->a &&
        e->a->kind == TirExprKind::kMod)
        return true;
    return hasNestedMod(e->a) || (e->b && hasNestedMod(e->b));
}

/** Does @p e contain Add with a nonzero integer immediate (offset)? */
bool
hasOffset(const TirExprRef& e)
{
    if (!e)
        return false;
    if (e->kind == TirExprKind::kAdd && e->b &&
        ((e->b->kind == TirExprKind::kIntImm && e->b->intValue != 0) ||
         (e->a->kind == TirExprKind::kIntImm && e->a->intValue != 0)))
        return true;
    return hasOffset(e->a) || (e->b && hasOffset(e->b));
}

/** Count syntactically identical loads in one expression. */
void
collectLoads(const TirExprRef& e, std::vector<std::string>& keys)
{
    if (!e)
        return;
    if (e->kind == TirExprKind::kLoad) {
        keys.push_back("b" + std::to_string(e->buffer) + "/" +
                       exprKindKey(e->a->kind) +
                       (e->a->kind == TirExprKind::kLoopVar
                            ? std::to_string(e->a->varDepth)
                            : ""));
    }
    collectLoads(e->a, keys);
    if (e->b)
        collectLoads(e->b, keys);
}

// ---- fold -----------------------------------------------------------------

TirProgram
passFold(const TirProgram& program, std::vector<std::string>&)
{
    TirProgram out = program;
    out.body = mapStmts(program.body, foldExpr);
    return out;
}

// ---- simplify-index (hosts tvm.tir.simplify_mod) --------------------------

TirProgram
passSimplifyIndex(const TirProgram& program, std::vector<std::string>&)
{
    TirProgram out = program;
    out.body = mapStmts(program.body, [](const TirExprRef& e) {
        if (hasNestedMod(e)) {
            cov("simplify", "nested_mod");
            if (DefectRegistry::instance().trigger("tvm.tir.simplify_mod"))
                throw BackendError("tvm.tir.simplify_mod",
                                   "TIR simplify: cannot prove "
                                   "mod-of-mod bound");
        }
        if (e->kind == TirExprKind::kDiv)
            cov("simplify", "div");
        if (e->kind == TirExprKind::kMod)
            cov("simplify", "mod");
        return e;
    });
    return out;
}

// ---- unroll (hosts tvm.tir.unroll_offset) ---------------------------------

TirStmtRef
unrollStmt(const TirStmtRef& s)
{
    switch (s->kind) {
      case TirStmtKind::kFor: {
        cov("unroll", extentBucket(s->extent));
        if (s->extent >= 8 && hasOffset(s->body->kind ==
                                                TirStmtKind::kStore
                                            ? s->body->index
                                            : nullptr)) {
            if (DefectRegistry::instance().trigger(
                    "tvm.tir.unroll_offset"))
                throw BackendError("tvm.tir.unroll_offset",
                                   "TIR unroll: offset base not "
                                   "handled for extent >= 8");
        }
        // Only annotate/recurse; actual peeling is not observable in
        // our interpreter, so we keep the loop.
        return TirStmt::forLoop(s->depth, s->extent,
                                unrollStmt(s->body));
      }
      case TirStmtKind::kStore:
        return s;
      case TirStmtKind::kSeq: {
        std::vector<TirStmtRef> out;
        for (const auto& sub : s->stmts)
            out.push_back(unrollStmt(sub));
        return TirStmt::seq(std::move(out));
      }
    }
    NNSMITH_PANIC("bad TirStmtKind");
}

TirProgram
passUnroll(const TirProgram& program, std::vector<std::string>&)
{
    TirProgram out = program;
    out.body = unrollStmt(program.body);
    return out;
}

// ---- vectorize-annotate (hosts tvm.tir.vectorize_rem) ---------------------

void
vectorizeScan(const TirStmtRef& s, const TirStats& stats)
{
    if (s->kind == TirStmtKind::kFor) {
        if (s->extent % 4 == 0)
            cov("vectorize", "aligned/" + extentBucket(s->extent));
        else
            cov("vectorize", "tail/" + extentBucket(s->extent));
        if (s->extent >= 8 && s->extent % 4 != 0 && stats.hasIntrinsics) {
            if (DefectRegistry::instance().trigger(
                    "tvm.tir.vectorize_rem"))
                throw BackendError("tvm.tir.vectorize_rem",
                                   "TIR vectorize: remainder loop "
                                   "mis-specialized for intrinsic body");
        }
        vectorizeScan(s->body, stats);
    } else if (s->kind == TirStmtKind::kSeq) {
        for (const auto& sub : s->stmts)
            vectorizeScan(sub, stats);
    }
}

TirProgram
passVectorize(const TirProgram& program, std::vector<std::string>&)
{
    vectorizeScan(program.body, analyze(program));
    return program;
}

// ---- dead-store-elim (hosts tvm.tir.dead_store, semantic) -----------------

void
deadStoreScan(const TirStmtRef& s, std::vector<std::string>& fired)
{
    if (s->kind == TirStmtKind::kSeq) {
        std::vector<int> stored_buffers;
        for (const auto& sub : s->stmts) {
            if (sub->kind == TirStmtKind::kStore) {
                cov("dse", "store/b" + std::to_string(sub->buffer));
                if (std::find(stored_buffers.begin(),
                              stored_buffers.end(),
                              sub->buffer) != stored_buffers.end()) {
                    cov("dse", "overwrite");
                    if (DefectRegistry::instance().trigger(
                            "tvm.tir.dead_store"))
                        fired.push_back("tvm.tir.dead_store");
                }
                stored_buffers.push_back(sub->buffer);
            }
            deadStoreScan(sub, fired);
        }
    } else if (s->kind == TirStmtKind::kFor) {
        deadStoreScan(s->body, fired);
    }
}

TirProgram
passDeadStoreElim(const TirProgram& program,
                  std::vector<std::string>& fired_semantic)
{
    deadStoreScan(program.body, fired_semantic);
    return program;
}

// ---- cse (hosts tvm.tir.cse_load, crash) ----------------------------------

void
cseScan(const TirStmtRef& s)
{
    if (s->kind == TirStmtKind::kStore) {
        std::vector<std::string> keys;
        collectLoads(s->value, keys);
        std::sort(keys.begin(), keys.end());
        for (const auto& key : keys)
            cov("cse", key);
        const bool duplicate =
            std::adjacent_find(keys.begin(), keys.end()) != keys.end();
        if (duplicate) {
            cov("cse", "dup");
            if (DefectRegistry::instance().trigger("tvm.tir.cse_load"))
                throw BackendError("tvm.tir.cse_load",
                                   "TIR CSE: merged loads across a "
                                   "store");
        }
    } else if (s->kind == TirStmtKind::kFor) {
        cseScan(s->body);
    } else {
        for (const auto& sub : s->stmts)
            cseScan(sub);
    }
}

TirProgram
passCse(const TirProgram& program, std::vector<std::string>&)
{
    cseScan(program.body);
    return program;
}

// ---- loop-fusion ----------------------------------------------------------

void
collectBufferUse(const TirExprRef& e, std::set<int>& loads)
{
    if (!e)
        return;
    if (e->kind == TirExprKind::kLoad)
        loads.insert(e->buffer);
    collectBufferUse(e->a, loads);
    if (e->b)
        collectBufferUse(e->b, loads);
}

void
collectBufferUse(const TirStmtRef& s, std::set<int>& stores,
                 std::set<int>& loads)
{
    switch (s->kind) {
      case TirStmtKind::kFor:
        collectBufferUse(s->body, stores, loads);
        return;
      case TirStmtKind::kStore:
        stores.insert(s->buffer);
        collectBufferUse(s->index, loads);
        collectBufferUse(s->value, loads);
        return;
      case TirStmtKind::kSeq:
        for (const auto& sub : s->stmts)
            collectBufferUse(sub, stores, loads);
        return;
    }
}

bool
disjoint(const std::set<int>& a, const std::set<int>& b)
{
    for (int x : a) {
        if (b.count(x) != 0)
            return false;
    }
    return true;
}

/**
 * Two sibling loops `for i: A; for i: B` (same depth, same extent) may
 * be fused into `for i: {A; B}` only when neither statement can
 * observe the other's stores and the stores cannot race for a final
 * value: store-buffer sets disjoint, and each side's loads disjoint
 * from the other side's stores. Loop extents are compile-time
 * constants and the IR has no conditionals, so a body's loop-variable
 * environment effects are identical on every iteration — fusing never
 * changes what a stale inner-loop variable reads.
 */
bool
canFuse(const TirStmtRef& a, const TirStmtRef& b)
{
    if (a->kind != TirStmtKind::kFor || b->kind != TirStmtKind::kFor ||
        a->depth != b->depth || a->extent != b->extent)
        return false;
    std::set<int> stores_a, loads_a, stores_b, loads_b;
    collectBufferUse(a->body, stores_a, loads_a);
    collectBufferUse(b->body, stores_b, loads_b);
    return disjoint(stores_a, stores_b) && disjoint(stores_a, loads_b) &&
           disjoint(stores_b, loads_a);
}

/** Append @p s to @p out, splicing nested Seq statements flat. */
void
appendFlattened(std::vector<TirStmtRef>& out, const TirStmtRef& s)
{
    if (s->kind == TirStmtKind::kSeq) {
        cov("fusion", "flatten");
        for (const auto& sub : s->stmts)
            appendFlattened(out, sub);
        return;
    }
    out.push_back(s);
}

TirStmtRef
fuseStmt(const TirStmtRef& s)
{
    switch (s->kind) {
      case TirStmtKind::kFor:
        return TirStmt::forLoop(s->depth, s->extent, fuseStmt(s->body));
      case TirStmtKind::kStore:
        return s;
      case TirStmtKind::kSeq: {
        std::vector<TirStmtRef> flat;
        for (const auto& sub : s->stmts)
            appendFlattened(flat, fuseStmt(sub));
        std::vector<TirStmtRef> out;
        for (const auto& sub : flat) {
            if (!out.empty() && canFuse(out.back(), sub)) {
                cov("fusion", "fuse/" + extentBucket(sub->extent));
                std::vector<TirStmtRef> merged;
                appendFlattened(merged, out.back()->body);
                appendFlattened(merged, sub->body);
                out.back() = TirStmt::forLoop(sub->depth, sub->extent,
                                              TirStmt::seq(
                                                  std::move(merged)));
                continue;
            }
            if (!out.empty() && out.back()->kind == TirStmtKind::kFor &&
                sub->kind == TirStmtKind::kFor)
                cov("fusion", "blocked");
            out.push_back(sub);
        }
        return TirStmt::seq(std::move(out));
      }
    }
    NNSMITH_PANIC("bad TirStmtKind");
}

TirProgram
passLoopFusion(const TirProgram& program, std::vector<std::string>&)
{
    TirProgram out = program;
    out.body = fuseStmt(program.body);
    return out;
}

// ---- const-hoist ----------------------------------------------------------

/**
 * Canonicalize commutative Add/Mul so immediates sit on the right —
 * "hoisting" constants out of the operand position later passes
 * inspect (fold's x*1 / x+0 identities only check the right operand).
 * IEEE addition and multiplication are value-commutative, so swapping
 * is bitwise semantics-preserving.
 */
TirExprRef
hoistExpr(const TirExprRef& e)
{
    if (!e->a)
        return e;
    TirExprRef a = hoistExpr(e->a);
    TirExprRef b = e->b ? hoistExpr(e->b) : nullptr;
    if (e->kind == TirExprKind::kLoad)
        return TirExpr::load(e->buffer, a);
    if (!b)
        return TirExpr::intrinsic(e->kind, a);
    if ((e->kind == TirExprKind::kAdd || e->kind == TirExprKind::kMul) &&
        isImm(a) && !isImm(b)) {
        cov("hoist", std::string("swap/") + exprKindKey(e->kind));
        std::swap(a, b);
    }
    return TirExpr::binary(e->kind, a, b);
}

TirProgram
passConstHoist(const TirProgram& program, std::vector<std::string>&)
{
    TirProgram out = program;
    out.body = mapStmts(program.body, hoistExpr);
    return out;
}

// ---- strength-reduce ------------------------------------------------------

/**
 * Strength reduction limited to rewrites that are bitwise-exact under
 * the interpreter's semantics: x*2 -> x+x (exact in IEEE), x-0 -> x,
 * and Mod(x, 1) -> 0 (the interpreter's Mod is integer with a positive
 * modulus, so any value mod 1 is 0). Div is left alone — the
 * interpreter floors quotients, so Div(x, 1) is floor(x), not x.
 */
TirExprRef
reduceExpr(const TirExprRef& e)
{
    if (!e->a)
        return e;
    TirExprRef a = reduceExpr(e->a);
    TirExprRef b = e->b ? reduceExpr(e->b) : nullptr;
    if (e->kind == TirExprKind::kLoad)
        return TirExpr::load(e->buffer, a);
    if (!b)
        return TirExpr::intrinsic(e->kind, a);
    if (e->kind == TirExprKind::kMul) {
        if (isImm(b) && immValue(b) == 2.0) {
            cov("strength", "mul2");
            return TirExpr::binary(TirExprKind::kAdd, a, a);
        }
        if (isImm(a) && immValue(a) == 2.0) {
            cov("strength", "mul2");
            return TirExpr::binary(TirExprKind::kAdd, b, b);
        }
    }
    if (e->kind == TirExprKind::kSub && isImm(b) && immValue(b) == 0.0) {
        cov("strength", "sub0");
        return a;
    }
    if (e->kind == TirExprKind::kMod && isImm(b) && immValue(b) == 1.0) {
        cov("strength", "mod1");
        return TirExpr::intImm(0);
    }
    return TirExpr::binary(e->kind, a, b);
}

TirProgram
passStrengthReduce(const TirProgram& program, std::vector<std::string>&)
{
    TirProgram out = program;
    out.body = mapStmts(program.body, reduceExpr);
    return out;
}

} // namespace

const std::vector<TirPass>&
tirPasses()
{
    static const std::vector<TirPass> registry = {
        {"fold", passFold},
        {"simplify-index", passSimplifyIndex},
        {"unroll", passUnroll},
        {"vectorize-annotate", passVectorize},
        {"dead-store-elim", passDeadStoreElim},
        {"cse", passCse},
        {"loop-fusion", passLoopFusion},
        {"const-hoist", passConstHoist},
        {"strength-reduce", passStrengthReduce},
    };
    return registry;
}

const TirPass*
findTirPass(const std::string& name)
{
    for (const auto& pass : tirPasses()) {
        if (name == pass.name)
            return &pass;
    }
    return nullptr;
}

TirProgram
runTirPasses(const TirProgram& program,
             const std::vector<std::string>& pass_names,
             std::vector<std::string>& fired_semantic)
{
    TirProgram out = program;
    for (const auto& name : pass_names) {
        const TirPass* pass = findTirPass(name);
        NNSMITH_ASSERT(pass != nullptr, "unknown TIR pass ", name);
        std::vector<std::string> fired;
        out = pass->apply(out, fired);
        for (auto& id : fired) {
            if (std::find(fired_semantic.begin(), fired_semantic.end(),
                          id) == fired_semantic.end())
                fired_semantic.push_back(std::move(id));
        }
    }
    return out;
}

namespace {

void
hashMix(uint64_t& h, uint64_t v)
{
    // FNV-1a over the 8 bytes of v.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFFu;
        h *= 0x100000001B3ull;
    }
}

uint64_t
doubleBits(double v)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

void
hashExpr(const TirExprRef& e, uint64_t& h)
{
    if (!e) {
        hashMix(h, 0xFEu);
        return;
    }
    hashMix(h, static_cast<uint64_t>(e->kind));
    hashMix(h, static_cast<uint64_t>(e->intValue));
    hashMix(h, doubleBits(e->floatValue));
    hashMix(h, static_cast<uint64_t>(e->varDepth));
    hashMix(h, static_cast<uint64_t>(e->buffer));
    hashExpr(e->a, h);
    hashExpr(e->b, h);
}

void
hashStmt(const TirStmtRef& s, uint64_t& h)
{
    if (!s) {
        hashMix(h, 0xFDu);
        return;
    }
    hashMix(h, static_cast<uint64_t>(s->kind));
    switch (s->kind) {
      case TirStmtKind::kFor:
        hashMix(h, static_cast<uint64_t>(s->extent));
        hashMix(h, static_cast<uint64_t>(s->depth));
        hashStmt(s->body, h);
        return;
      case TirStmtKind::kStore:
        hashMix(h, static_cast<uint64_t>(s->buffer));
        hashExpr(s->index, h);
        hashExpr(s->value, h);
        return;
      case TirStmtKind::kSeq:
        hashMix(h, s->stmts.size());
        for (const auto& sub : s->stmts)
            hashStmt(sub, h);
        return;
    }
}

} // namespace

uint64_t
hashTirProgram(const TirProgram& program)
{
    uint64_t h = 0xCBF29CE484222325ull;
    hashMix(h, static_cast<uint64_t>(program.numInputs));
    hashMix(h, program.bufferSizes.size());
    for (int64_t size : program.bufferSizes)
        hashMix(h, static_cast<uint64_t>(size));
    hashStmt(program.body, h);
    return h;
}

} // namespace nnsmith::tirlite
