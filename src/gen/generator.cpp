#include "gen/generator.h"

#include <algorithm>
#include <sstream>

#include "gen/binning.h"
#include "support/logging.h"

namespace nnsmith::gen {

using graph::Graph;
using graph::NodeKind;
using ops::DTypeCombo;
using ops::OpMeta;
using symbolic::Pred;
using tensor::DType;
using tensor::TensorType;

namespace {

/** Give up after this many failed insertion attempts in a row. */
constexpr int kMaxConsecutiveFailures = 64;

/**
 * When filling a forward-insertion input slot, probability of creating
 * a fresh placeholder even though an existing value matches (keeps
 * weight/input diversity up).
 */
constexpr double kFreshPlaceholderProb = 0.25;

} // namespace

int64_t
GeneratorConfig::dimCapForRank(int rank) const
{
    const int64_t scale = std::max<int64_t>(dimCapScale, 1);
    switch (rank) {
      case 0: return 1;
      case 1: return 256 * scale;
      case 2: return 64 * scale;
      case 3: return 24 * scale;
      case 4: return 12 * scale;
      default: return 8 * scale;
    }
}

std::vector<Pred>
dimBoundsFor(const TensorType& type, const GeneratorConfig& config)
{
    std::vector<Pred> preds;
    const int64_t cap = config.dimCapForRank(type.rank());
    const int64_t floor =
        std::max<int64_t>(1, std::min(config.dimFloor, cap));
    for (int i = 0; i < type.rank(); ++i) {
        if (type.dim(i)->isConst())
            continue;
        preds.push_back(symbolic::ge(type.dim(i), floor));
        preds.push_back(symbolic::le(type.dim(i), cap));
    }
    return preds;
}

std::vector<std::string>
instanceKeys(const Graph& graph)
{
    std::vector<std::string> keys;
    for (const auto& node : graph.nodes()) {
        if (node.dead || node.kind != NodeKind::kOp)
            continue;
        std::ostringstream os;
        os << node.op->name() << "|";
        for (int v : node.inputs)
            os << graph.value(v).type.toString() << ",";
        os << "|";
        for (const auto& attr : node.op->attrs())
            os << attr.name << "=" << attr.value << ",";
        keys.push_back(os.str());
    }
    return keys;
}

std::vector<std::string>
GeneratedModel::instanceKeys() const
{
    return gen::instanceKeys(graph);
}

struct GraphGenerator::Session {
    Graph graph;
    symbolic::SymbolTable symbols;
    std::unique_ptr<solver::Solver> solver;
    int solverQueries = 0;
    int rejected = 0;
};

GraphGenerator::GraphGenerator(GeneratorConfig config, uint64_t seed)
    : config_(std::move(config)), rng_(seed)
{
    const auto& registry = ops::OpRegistry::global();
    if (config_.opAllowlist.empty()) {
        for (const auto& meta : registry.all())
            candidates_.push_back(&meta);
    } else {
        for (const auto& name : config_.opAllowlist) {
            const OpMeta* meta = registry.find(name);
            if (meta == nullptr)
                fatal("unknown operator in allowlist: " + name);
            candidates_.push_back(meta);
        }
    }
    NNSMITH_ASSERT(!candidates_.empty(), "no candidate operators");
}

namespace {

/** Weighted element-type draw for fresh placeholders. */
DType
pickLeafDType(Rng& rng)
{
    const double coin = rng.uniformReal();
    if (coin < 0.55)
        return DType::kF32;
    if (coin < 0.70)
        return DType::kF64;
    if (coin < 0.80)
        return DType::kI32;
    if (coin < 0.90)
        return DType::kI64;
    return DType::kBool;
}

/** Random placeholder rank, biased toward the common 1..4. */
int
pickLeafRank(Rng& rng)
{
    const double coin = rng.uniformReal();
    if (coin < 0.05)
        return 0;
    if (coin < 0.25)
        return 1;
    if (coin < 0.50)
        return 2;
    if (coin < 0.75)
        return 3;
    if (coin < 0.95)
        return 4;
    return 5;
}

bool
rankAllowed(const std::vector<int>& allowed, int rank)
{
    return allowed.empty() ||
           std::find(allowed.begin(), allowed.end(), rank) != allowed.end();
}

} // namespace

TensorType
GraphGenerator::makePlaceholderType(Session& session, DType dtype, int rank,
                                    std::vector<Pred>& pending)
{
    TensorType type =
        ops::freshTensorType(session.symbols, dtype, rank, "ph");
    const auto bounds = dimBoundsFor(type, config_);
    pending.insert(pending.end(), bounds.begin(), bounds.end());
    return type;
}

bool
GraphGenerator::forwardInsert(Session& session, const OpMeta& meta)
{
    auto op = meta.make(session.symbols, rng_);
    auto combos = op->dtypeCombos();
    rng_.shuffle(combos);
    const auto ranks = op->inputRanks();
    const auto live = session.graph.liveValues();

    const int combo_tries = std::min<int>(4, static_cast<int>(combos.size()));
    for (int attempt = 0; attempt < combo_tries; ++attempt) {
        const DTypeCombo& combo = combos[static_cast<size_t>(attempt)];
        // Candidate existing values per slot.
        std::vector<std::vector<int>> per_slot(
            static_cast<size_t>(op->numInputs()));
        bool any_existing = false;
        for (int i = 0; i < op->numInputs(); ++i) {
            for (int v : live) {
                const TensorType& t = session.graph.value(v).type;
                if (t.dtype() == combo.in[static_cast<size_t>(i)] &&
                    rankAllowed(ranks[static_cast<size_t>(i)], t.rank())) {
                    per_slot[static_cast<size_t>(i)].push_back(v);
                    any_existing = true;
                }
            }
        }
        // Connectivity: at least one input must come from the graph.
        if (!any_existing)
            continue;

        std::vector<int> chosen(static_cast<size_t>(op->numInputs()), -1);
        std::vector<TensorType> in_types;
        std::vector<Pred> pending;
        std::vector<int> fresh_slots;
        bool used_existing = false;
        for (int i = 0; i < op->numInputs(); ++i) {
            auto& candidates = per_slot[static_cast<size_t>(i)];
            const bool want_fresh =
                candidates.empty() || rng_.chance(kFreshPlaceholderProb);
            // Force at least one existing pick on the last chance.
            const bool must_use_existing =
                !used_existing && i == op->numInputs() - 1 &&
                !candidates.empty();
            if (want_fresh && !must_use_existing) {
                const auto& allowed = ranks[static_cast<size_t>(i)];
                const int rank =
                    allowed.empty()
                        ? pickLeafRank(rng_)
                        : static_cast<int>(
                              allowed[rng_.index(allowed.size())]);
                in_types.push_back(makePlaceholderType(
                    session, combo.in[static_cast<size_t>(i)], rank,
                    pending));
                fresh_slots.push_back(i);
            } else {
                const int v = candidates[rng_.index(candidates.size())];
                chosen[static_cast<size_t>(i)] = v;
                in_types.push_back(session.graph.value(v).type);
                used_existing = true;
            }
        }
        if (!used_existing)
            continue;

        op->setDTypes(combo);
        auto preds = op->requirements(in_types);
        preds.insert(preds.end(), pending.begin(), pending.end());
        const auto out_types = op->typeTransfer(in_types);
        for (const auto& out : out_types) {
            const auto bounds = dimBoundsFor(out, config_);
            preds.insert(preds.end(), bounds.begin(), bounds.end());
        }
        ++session.solverQueries;
        if (!session.solver->tryAdd(preds))
            continue;

        // Commit: materialize fresh placeholders, then the node.
        for (int slot : fresh_slots) {
            const int v = session.graph.addPlaceholder(
                in_types[static_cast<size_t>(slot)]);
            chosen[static_cast<size_t>(slot)] = v;
        }
        session.graph.addOp(std::shared_ptr<ops::OpBase>(std::move(op)),
                            chosen, out_types);
        return true;
    }
    return false;
}

bool
GraphGenerator::backwardInsert(Session& session, const OpMeta& meta)
{
    auto op = meta.make(session.symbols, rng_);
    if (op->numOutputs() != 1)
        return false;
    auto combos = op->dtypeCombos();
    rng_.shuffle(combos);
    const auto placeholders = session.graph.placeholderValues();
    if (placeholders.empty())
        return false;

    const int combo_tries = std::min<int>(4, static_cast<int>(combos.size()));
    for (int attempt = 0; attempt < combo_tries; ++attempt) {
        const DTypeCombo& combo = combos[static_cast<size_t>(attempt)];
        std::vector<int> matches;
        for (int v : placeholders) {
            if (session.graph.value(v).type.dtype() == combo.out[0])
                matches.push_back(v);
        }
        if (matches.empty())
            continue;
        const int target = matches[rng_.index(matches.size())];
        const TensorType& target_type = session.graph.value(target).type;

        op->setDTypes(combo);
        const auto in_types =
            op->inferInputTypes({target_type}, session.symbols);
        if (!in_types)
            continue;
        const auto out_types = op->typeTransfer(*in_types);
        if (out_types[0].rank() != target_type.rank() ||
            out_types[0].dtype() != target_type.dtype())
            continue;

        auto preds = op->requirements(*in_types);
        // Algorithm 1, line 17: the new op must reproduce the
        // placeholder's type exactly.
        const auto equal = ops::shapesEqual(out_types[0], target_type);
        preds.insert(preds.end(), equal.begin(), equal.end());
        for (const auto& t : *in_types) {
            const auto bounds = dimBoundsFor(t, config_);
            preds.insert(preds.end(), bounds.begin(), bounds.end());
        }
        ++session.solverQueries;
        if (!session.solver->tryAdd(preds))
            continue;

        std::vector<int> input_values;
        for (const auto& t : *in_types)
            input_values.push_back(session.graph.addPlaceholder(t));
        session.graph.replacePlaceholders(
            std::shared_ptr<ops::OpBase>(std::move(op)), input_values,
            {target});
        return true;
    }
    return false;
}

bool
GraphGenerator::tryInsert(Session& session, const OpMeta& meta)
{
    if (rng_.chance(config_.forwardProb))
        return forwardInsert(session, meta);
    return backwardInsert(session, meta);
}

std::optional<GeneratedModel>
GraphGenerator::generate()
{
    Session session;
    session.solver = solver::makeSolver(config_.solverKind, rng_.next());

    // Seed graph: one placeholder (paper §3.2).
    {
        std::vector<Pred> pending;
        const TensorType seed_type = makePlaceholderType(
            session, pickLeafDType(rng_), pickLeafRank(rng_), pending);
        if (!session.solver->tryAdd(pending))
            return std::nullopt;
        session.graph.addPlaceholder(seed_type);
    }

    int failures = 0;
    while (session.graph.numOpNodes() < config_.targetOpNodes &&
           failures < kMaxConsecutiveFailures) {
        const OpMeta& meta = *candidates_[rng_.index(candidates_.size())];
        if (tryInsert(session, meta)) {
            failures = 0;
        } else {
            ++failures;
            ++session.rejected;
        }
    }
    if (session.graph.numOpNodes() == 0)
        return std::nullopt;

    if (config_.enableBinning) {
        applyBinning(*session.solver,
                     makeBinningConstraints(session.graph, rng_,
                                            config_.binningK),
                     rng_);
    }

    const auto solution = session.solver->model();
    if (!solution)
        return std::nullopt;

    // Promote remaining placeholders to model inputs or weights.
    bool have_input = false;
    const auto leaf_nodes = session.graph.nodesOfKind(NodeKind::kPlaceholder);
    for (size_t i = 0; i < leaf_nodes.size(); ++i) {
        const bool as_input =
            (!have_input && i == leaf_nodes.size() - 1) || rng_.chance(0.4);
        session.graph.promotePlaceholder(
            leaf_nodes[i], as_input ? NodeKind::kInput : NodeKind::kWeight);
        have_input |= as_input;
    }

    GeneratedModel result;
    try {
        result.graph = session.graph.concretized(*solution);
    } catch (const PanicError&) {
        // A type referenced a variable the model does not bind; treat
        // as a failed attempt (callers retry with fresh randomness).
        return std::nullopt;
    }
    result.solution = *solution;
    result.solverQueries = session.solverQueries;
    result.rejectedInsertions = session.rejected;
    return result;
}

} // namespace nnsmith::gen
