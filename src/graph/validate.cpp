#include "graph/validate.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "support/logging.h"

namespace nnsmith::graph {

namespace {

void
checkOpNode(const Graph& g, const Node& n, ValidationResult& result)
{
    auto err = [&](const std::string& msg) {
        result.errors.push_back("node " + std::to_string(n.id) + " (" +
                                n.op->name() + "): " + msg);
    };

    std::vector<TensorType> in_types;
    in_types.reserve(n.inputs.size());
    for (int v : n.inputs)
        in_types.push_back(g.value(v).type);

    // Element types must match the combo chosen at insertion.
    const auto& in_dtypes = n.op->inDTypes();
    if (in_dtypes.size() != in_types.size()) {
        err("dtype combo not set");
        return;
    }
    for (size_t i = 0; i < in_types.size(); ++i) {
        if (in_types[i].dtype() != in_dtypes[i]) {
            err("input " + std::to_string(i) + " dtype " +
                tensor::dtypeName(in_types[i].dtype()) + " != chosen " +
                tensor::dtypeName(in_dtypes[i]));
        }
    }

    // Ranks must be admissible.
    const auto ranks = n.op->inputRanks();
    for (size_t i = 0; i < in_types.size() && i < ranks.size(); ++i) {
        if (!ranks[i].empty() &&
            std::find(ranks[i].begin(), ranks[i].end(),
                      in_types[i].rank()) == ranks[i].end()) {
            err("input " + std::to_string(i) + " rank " +
                std::to_string(in_types[i].rank()) + " not allowed");
        }
    }

    // All `requires` predicates must hold. Concrete graphs evaluate
    // every expression to a constant, so an empty assignment suffices.
    const Assignment empty;
    for (const auto& pred : n.op->requirements(in_types)) {
        const auto p =
            symbolic::Pred{pred.op, symbolic::simplify(pred.lhs),
                           symbolic::simplify(pred.rhs)};
        if (!p.lhs->isConst() || !p.rhs->isConst()) {
            err("non-concrete requirement: " + symbolic::toString(pred));
            continue;
        }
        if (!symbolic::holds(p, empty))
            err("requirement violated: " + symbolic::toString(pred));
    }

    // Recorded output types must equal the type-transfer result.
    const auto out_types = n.op->typeTransfer(in_types);
    if (out_types.size() != n.outputs.size()) {
        err("output arity mismatch");
        return;
    }
    for (size_t i = 0; i < out_types.size(); ++i) {
        const TensorType& recorded = g.value(n.outputs[i]).type;
        // Fold the transfer expressions; all inputs are concrete.
        const auto derived = out_types[i].foldedConcrete();
        if (!derived.has_value()) {
            err("type transfer not concrete for output " +
                std::to_string(i));
            continue;
        }
        if (recorded.dtype() != derived->dtype() ||
            !(recorded.concreteShape() == derived->concreteShape())) {
            err("output " + std::to_string(i) + " recorded " +
                recorded.toString() + " != derived " + derived->toString());
        }
    }
}

} // namespace

std::string
ValidationResult::summary() const
{
    if (ok())
        return "valid";
    std::ostringstream os;
    os << errors.size() << " error(s):";
    for (const auto& e : errors)
        os << "\n  " << e;
    return os.str();
}

ValidationResult
validate(const Graph& graph)
{
    ValidationResult result;
    if (!graph.isConcrete()) {
        result.errors.push_back("graph is not concrete");
        return result;
    }
    for (const auto& n : graph.nodes()) {
        if (n.dead)
            continue;
        if (n.kind == NodeKind::kPlaceholder) {
            result.errors.push_back("unpromoted placeholder node " +
                                    std::to_string(n.id));
            continue;
        }
        if (n.kind != NodeKind::kOp)
            continue;
        checkOpNode(graph, n, result);
    }
    if (!isConnected(graph))
        result.errors.push_back("graph is not weakly connected");
    return result;
}

bool
isConnected(const Graph& graph)
{
    // Union-find over live nodes, merged along edges.
    std::vector<int> parent(graph.nodes().size());
    for (size_t i = 0; i < parent.size(); ++i)
        parent[i] = static_cast<int>(i);
    std::function<int(int)> find = [&](int x) {
        while (parent[static_cast<size_t>(x)] != x)
            x = parent[static_cast<size_t>(x)] =
                parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
        return x;
    };
    auto unite = [&](int a, int b) {
        parent[static_cast<size_t>(find(a))] = find(b);
    };
    for (const auto& n : graph.nodes()) {
        if (n.dead)
            continue;
        for (int v : n.inputs)
            unite(n.id, graph.value(v).producer);
    }
    int root = -1;
    for (const auto& n : graph.nodes()) {
        if (n.dead)
            continue;
        if (root == -1)
            root = find(n.id);
        else if (find(n.id) != root)
            return false;
    }
    return true;
}

} // namespace nnsmith::graph
