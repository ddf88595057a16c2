#include "graph/graph.h"

#include <algorithm>
#include <sstream>

#include "support/logging.h"

namespace nnsmith::graph {

int
Graph::addLeaf(NodeKind kind, TensorType type, const std::string& name)
{
    NNSMITH_ASSERT(kind != NodeKind::kOp, "addLeaf with kOp");
    Node n;
    n.id = static_cast<int>(nodes_.size());
    n.kind = kind;
    nodes_.push_back(n);
    const int v = newValue(std::move(type), n.id, 0);
    values_[static_cast<size_t>(v)].name =
        name.empty() ? "v" + std::to_string(v) : name;
    nodes_.back().outputs.push_back(v);
    return v;
}

int
Graph::addPlaceholder(TensorType type)
{
    return addLeaf(NodeKind::kPlaceholder, std::move(type), "");
}

int
Graph::addOp(std::shared_ptr<OpBase> op,
             const std::vector<int>& input_values,
             const std::vector<TensorType>& output_types)
{
    NNSMITH_ASSERT(op != nullptr, "addOp(null)");
    NNSMITH_ASSERT(static_cast<int>(input_values.size()) == op->numInputs(),
                   op->name(), " expects ", op->numInputs(), " inputs, got ",
                   input_values.size());
    NNSMITH_ASSERT(static_cast<int>(output_types.size()) == op->numOutputs(),
                   op->name(), " output arity mismatch");
    Node n;
    n.id = static_cast<int>(nodes_.size());
    n.kind = NodeKind::kOp;
    n.op = std::move(op);
    n.inputs = input_values;
    nodes_.push_back(n);
    for (size_t i = 0; i < output_types.size(); ++i) {
        const int v = newValue(output_types[i], nodes_.back().id,
                               static_cast<int>(i));
        nodes_.back().outputs.push_back(v);
    }
    return nodes_.back().id;
}

int
Graph::replacePlaceholders(std::shared_ptr<OpBase> op,
                           const std::vector<int>& input_values,
                           const std::vector<int>& target_values)
{
    NNSMITH_ASSERT(op != nullptr, "replacePlaceholders(null)");
    NNSMITH_ASSERT(static_cast<int>(target_values.size()) ==
                       op->numOutputs(),
                   op->name(), " output arity mismatch");
    Node n;
    n.id = static_cast<int>(nodes_.size());
    n.kind = NodeKind::kOp;
    n.op = std::move(op);
    n.inputs = input_values;
    n.outputs = target_values;
    nodes_.push_back(n);
    for (size_t i = 0; i < target_values.size(); ++i) {
        Value& v = value(target_values[i]);
        Node& old = node(v.producer);
        NNSMITH_ASSERT(old.kind == NodeKind::kPlaceholder,
                       "replacePlaceholders target is not a placeholder");
        old.dead = true;
        v.producer = nodes_.back().id;
        v.producerOutput = static_cast<int>(i);
    }
    return nodes_.back().id;
}

void
Graph::promotePlaceholder(int node_id, NodeKind kind)
{
    Node& n = node(node_id);
    NNSMITH_ASSERT(n.kind == NodeKind::kPlaceholder && !n.dead,
                   "promotePlaceholder on non-placeholder node ", node_id);
    NNSMITH_ASSERT(kind == NodeKind::kInput || kind == NodeKind::kWeight,
                   "placeholders promote to input or weight only");
    n.kind = kind;
}

Node&
Graph::node(int id)
{
    NNSMITH_ASSERT(id >= 0 && id < static_cast<int>(nodes_.size()),
                   "bad node id ", id);
    return nodes_[static_cast<size_t>(id)];
}

const Node&
Graph::node(int id) const
{
    return const_cast<Graph*>(this)->node(id);
}

Value&
Graph::value(int id)
{
    NNSMITH_ASSERT(id >= 0 && id < static_cast<int>(values_.size()),
                   "bad value id ", id);
    return values_[static_cast<size_t>(id)];
}

const Value&
Graph::value(int id) const
{
    return const_cast<Graph*>(this)->value(id);
}

int
Graph::numLiveNodes() const
{
    int n = 0;
    for (const auto& node : nodes_) {
        if (!node.dead)
            ++n;
    }
    return n;
}

int
Graph::numOpNodes() const
{
    int n = 0;
    for (const auto& node : nodes_) {
        if (!node.dead && node.kind == NodeKind::kOp)
            ++n;
    }
    return n;
}

std::vector<int>
Graph::nodesOfKind(NodeKind kind) const
{
    std::vector<int> ids;
    for (const auto& node : nodes_) {
        if (!node.dead && node.kind == kind)
            ids.push_back(node.id);
    }
    return ids;
}

std::vector<int>
Graph::consumers(int value_id) const
{
    std::vector<int> ids;
    for (const auto& node : nodes_) {
        if (node.dead)
            continue;
        if (std::find(node.inputs.begin(), node.inputs.end(), value_id) !=
            node.inputs.end())
            ids.push_back(node.id);
    }
    return ids;
}

std::vector<int>
Graph::outputValues() const
{
    std::vector<int> ids;
    for (const auto& v : values_) {
        if (node(v.producer).dead)
            continue;
        if (consumers(v.id).empty())
            ids.push_back(v.id);
    }
    return ids;
}

std::vector<int>
Graph::inputValues() const
{
    std::vector<int> ids;
    for (int n : nodesOfKind(NodeKind::kInput))
        ids.push_back(node(n).outputs[0]);
    return ids;
}

std::vector<int>
Graph::weightValues() const
{
    std::vector<int> ids;
    for (int n : nodesOfKind(NodeKind::kWeight))
        ids.push_back(node(n).outputs[0]);
    return ids;
}

std::vector<int>
Graph::placeholderValues() const
{
    std::vector<int> ids;
    for (int n : nodesOfKind(NodeKind::kPlaceholder))
        ids.push_back(node(n).outputs[0]);
    return ids;
}

std::vector<int>
Graph::liveValues() const
{
    std::vector<int> ids;
    for (const auto& v : values_) {
        if (!node(v.producer).dead)
            ids.push_back(v.id);
    }
    return ids;
}

std::vector<int>
Graph::topoOrder() const
{
    // Kahn's algorithm over live nodes; ties broken by node id, so the
    // order is deterministic.
    std::vector<int> indegree(nodes_.size(), 0);
    for (const auto& n : nodes_) {
        if (n.dead)
            continue;
        for (int v : n.inputs) {
            (void)v;
            ++indegree[static_cast<size_t>(n.id)];
        }
    }
    std::vector<int> ready;
    for (const auto& n : nodes_) {
        if (!n.dead && indegree[static_cast<size_t>(n.id)] == 0)
            ready.push_back(n.id);
    }
    std::vector<int> order;
    order.reserve(nodes_.size());
    while (!ready.empty()) {
        std::sort(ready.begin(), ready.end(), std::greater<int>());
        const int id = ready.back();
        ready.pop_back();
        order.push_back(id);
        for (const auto& n : nodes_) {
            if (n.dead || n.kind != NodeKind::kOp)
                continue;
            bool consumes = false;
            for (int v : n.inputs) {
                if (value(v).producer == id)
                    consumes = true;
            }
            if (!consumes)
                continue;
            int remaining = 0;
            for (int v : n.inputs) {
                const int p = value(v).producer;
                if (std::find(order.begin(), order.end(), p) == order.end())
                    ++remaining;
            }
            if (remaining == 0 &&
                std::find(order.begin(), order.end(), n.id) == order.end() &&
                std::find(ready.begin(), ready.end(), n.id) == ready.end())
                ready.push_back(n.id);
        }
    }
    NNSMITH_ASSERT(static_cast<int>(order.size()) == numLiveNodes(),
                   "cycle in graph? ordered ", order.size(), " of ",
                   numLiveNodes());
    return order;
}

std::vector<int>
Graph::opOrder() const
{
    std::vector<int> ops;
    for (int id : topoOrder()) {
        if (node(id).kind == NodeKind::kOp)
            ops.push_back(id);
    }
    return ops;
}

bool
Graph::isConcrete() const
{
    for (const auto& v : values_) {
        if (!node(v.producer).dead && !v.type.isConcrete())
            return false;
    }
    for (const auto& n : nodes_) {
        if (!n.dead && n.kind == NodeKind::kOp && !n.op->isConcretized())
            return false;
    }
    return true;
}

Graph
Graph::concretized(const Assignment& model) const
{
    Graph g;
    g.nodes_ = nodes_;
    g.values_ = values_;
    for (auto& v : g.values_)
        v.type = v.type.concretized(model);
    for (auto& n : g.nodes_) {
        if (n.kind == NodeKind::kOp) {
            std::shared_ptr<OpBase> copy = n.op->clone();
            copy->concretize(model);
            n.op = std::move(copy);
        }
    }
    return g;
}

std::string
Graph::toString() const
{
    std::ostringstream os;
    os << "graph {\n";
    for (int id : topoOrder()) {
        const Node& n = node(id);
        os << "  ";
        for (size_t i = 0; i < n.outputs.size(); ++i) {
            if (i)
                os << ", ";
            os << "%" << n.outputs[i] << ":"
               << value(n.outputs[i]).type.toString();
        }
        os << " = ";
        switch (n.kind) {
          case NodeKind::kInput: os << "Input"; break;
          case NodeKind::kWeight: os << "Weight"; break;
          case NodeKind::kPlaceholder: os << "Placeholder"; break;
          case NodeKind::kOp: os << n.op->describe(); break;
        }
        os << "(";
        for (size_t i = 0; i < n.inputs.size(); ++i) {
            if (i)
                os << ", ";
            os << "%" << n.inputs[i];
        }
        os << ")\n";
    }
    os << "}";
    return os.str();
}

int
Graph::newValue(TensorType type, int producer, int producer_output)
{
    Value v;
    v.id = static_cast<int>(values_.size());
    v.type = std::move(type);
    v.producer = producer;
    v.producerOutput = producer_output;
    v.name = "v" + std::to_string(v.id);
    values_.push_back(std::move(v));
    return values_.back().id;
}

} // namespace nnsmith::graph
