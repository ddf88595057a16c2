/**
 * @file
 * z3-backed incremental solver (the paper's configuration, §3.2).
 *
 * Kept in one translation unit so the rest of the library never includes
 * z3++.h; the build works with or without z3 present.
 *
 * Each solver owns a fresh z3::context and sits on z3's incremental
 * `simple()` solver, which serves the generator's push/check/pop
 * traffic without the second, non-incremental tactic solver that the
 * default combined solver carries. A context shared across models
 * would make z3's answers depend on what earlier models asked it, and
 * with them the generated graphs.
 */
#include <memory>
#include <unordered_map>

#include <z3++.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/solver.h"
#include "support/logging.h"

namespace nnsmith::solver {

using symbolic::CmpOp;
using symbolic::Expr;
using symbolic::ExprKind;
using symbolic::ExprRef;

namespace {

/**
 * Per-check resource limit, in z3's deterministic rlimit units. z3
 * applies it to each check() on its own, not to the solver's lifetime;
 * a check that runs out returns `unknown`, which tryAdd rejects like
 * `unsat`. Unlike a wall-clock timeout, the verdict cannot depend on
 * machine load.
 *
 * Where the number comes from: the largest single check seen used
 * 71,842 units (32 ms; `campaign_bench` fresh-ort, seed 4242, 10 s).
 * Every other check of the three workloads at seeds 4242, 2023 and
 * 901 (~58,000 checks, none unknown) used under 2,500. 7,500,000 is
 * ~104x the largest. With nlsat off (see the constructor), a check
 * that never finishes spends ~0.75 us per unit (4-core x86 host), so
 * it is cut after ~5.6 s.
 */
constexpr unsigned kCheckRlimit = 7'500'000;

/** A fresh context, timed as the `solver.context` phase. */
std::unique_ptr<z3::context>
makeContext()
{
    obs::PhaseSpan span("solver.context");
    return std::make_unique<z3::context>();
}

/** Incremental z3 wrapper with push/pop batch semantics. */
class Z3Solver final : public Solver {
  public:
    explicit Z3Solver(uint64_t seed)
        : ctx_(makeContext()), solver_(*ctx_, z3::solver::simple())
    {
        z3::params params(*ctx_);
        params.set("rlimit", kCheckRlimit);
        // z3's complete nonlinear real procedure (nlsat), which the
        // integer solver falls back to when linearization yields no
        // lemma, stays off. Shape systems reached it only in a hopeless
        // case: a reshape product equality whose binned dim is a prime
        // no product of the other dims reaches, plus stride division.
        // There each nlsat call costs seconds yet barely advances the
        // rlimit count (150,000 units took 7.7 s, against 0.1 s with it
        // off), so no rlimit could bound the check. Without it that
        // check still comes back `unknown`, and every other check seen
        // is unchanged.
        params.set("smt.arith.nl.nra", false);
        params.set("random_seed", static_cast<unsigned>(seed));
        solver_.set(params);
    }

    bool
    tryAdd(const std::vector<Pred>& batch) override
    {
        if (batch.empty())
            return true;
        obs::PhaseSpan span("solver.sat");
        obs::counterAdd("solver.queries");
        solver_.push();
        for (const auto& p : batch)
            solver_.add(translate(p));
        lastSat_ = solver_.check() == z3::sat;
        if (!lastSat_) {
            span.rename("solver.unsat");
            obs::counterAdd("solver.rejected");
            solver_.pop();
            return false;
        }
        numCommitted_ += batch.size();
        return true;
    }

    bool
    check() override
    {
        lastSat_ = solver_.check() == z3::sat;
        return lastSat_;
    }

    std::optional<Assignment>
    model() override
    {
        obs::PhaseSpan span("solver.model");
        // The last check already found the committed system sat; only
        // a rejected (popped) batch, or no check at all, needs a new one.
        if (!lastSat_ && !check())
            return std::nullopt;
        z3::model m = solver_.get_model();
        Assignment a;
        for (const auto& [id, var] : vars_) {
            z3::expr value = m.eval(var, /*model_completion=*/true);
            int64_t v = 0;
            if (value.is_numeral_i64(v))
                a.set(id, v);
            else
                a.set(id, 1); // unconstrained: any value works
        }
        return a;
    }

    size_t numCommitted() const override { return numCommitted_; }
    std::string name() const override { return "z3"; }

  private:
    z3::expr
    varFor(VarId id, const std::string& name)
    {
        auto it = vars_.find(id);
        if (it != vars_.end())
            return it->second;
        z3::expr e = ctx_->int_const(name.c_str());
        vars_.emplace(id, e);
        return e;
    }

    z3::expr
    translate(const ExprRef& e)
    {
        switch (e->kind()) {
          case ExprKind::kConst:
            return ctx_->int_val(e->value());
          case ExprKind::kVar:
            return varFor(e->varId(), e->varName());
          case ExprKind::kNeg:
            return -translate(e->lhs());
          case ExprKind::kAdd:
            return translate(e->lhs()) + translate(e->rhs());
          case ExprKind::kSub:
            return translate(e->lhs()) - translate(e->rhs());
          case ExprKind::kMul:
            return translate(e->lhs()) * translate(e->rhs());
          case ExprKind::kFloorDiv: {
            // z3 integer division is Euclidean; for the positive
            // divisors used by shape math it coincides with floor.
            return translate(e->lhs()) / translate(e->rhs());
          }
          case ExprKind::kMod:
            return z3::mod(translate(e->lhs()), translate(e->rhs()));
          case ExprKind::kMin: {
            z3::expr a = translate(e->lhs());
            z3::expr b = translate(e->rhs());
            return z3::ite(a <= b, a, b);
          }
          case ExprKind::kMax: {
            z3::expr a = translate(e->lhs());
            z3::expr b = translate(e->rhs());
            return z3::ite(a >= b, a, b);
          }
        }
        NNSMITH_PANIC("bad ExprKind");
    }

    z3::expr
    translate(const Pred& p)
    {
        z3::expr l = translate(p.lhs);
        z3::expr r = translate(p.rhs);
        switch (p.op) {
          case CmpOp::kEq: return l == r;
          case CmpOp::kNe: return l != r;
          case CmpOp::kLt: return l < r;
          case CmpOp::kLe: return l <= r;
          case CmpOp::kGt: return l > r;
          case CmpOp::kGe: return l >= r;
        }
        NNSMITH_PANIC("bad CmpOp");
    }

    std::unique_ptr<z3::context> ctx_;
    z3::solver solver_;
    std::unordered_map<VarId, z3::expr> vars_;
    size_t numCommitted_ = 0;
    bool lastSat_ = false; ///< the last check() found the system sat
};

} // namespace

std::unique_ptr<Solver>
makeZ3Solver(uint64_t seed)
{
    return std::make_unique<Z3Solver>(seed);
}

} // namespace nnsmith::solver
