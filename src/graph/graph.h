/**
 * @file
 * The DNN computation graph IR (paper §2.1).
 *
 * A Graph is a DAG of Nodes producing Values (tensors). During
 * generation, Values carry symbolic TensorTypes and leaf nodes may be
 * *placeholders* — single-output stand-ins later promoted to model
 * inputs or weights (paper §3.2). After concretization every type is
 * concrete and the graph is executable.
 */
#ifndef NNSMITH_GRAPH_GRAPH_H
#define NNSMITH_GRAPH_GRAPH_H

#include <memory>
#include <string>
#include <vector>

#include "ops/op_base.h"
#include "tensor/tensor_type.h"

namespace nnsmith::graph {

using ops::OpBase;
using symbolic::Assignment;
using tensor::TensorType;

/** Role of a node in the graph. */
enum class NodeKind {
    kInput,       ///< model input (fed at run time)
    kWeight,      ///< constant input (trained parameter analogue)
    kPlaceholder, ///< undecided leaf; promoted before finalization
    kOp,          ///< operator application
};

/** A tensor edge: output of one node, input of zero or more nodes. */
struct Value {
    int id = -1;
    TensorType type;
    int producer = -1;       ///< producing node id
    int producerOutput = 0;  ///< index among the producer's outputs
    std::string name;
};

/** A graph node. */
struct Node {
    int id = -1;
    NodeKind kind = NodeKind::kOp;
    std::shared_ptr<OpBase> op; ///< set iff kind == kOp
    std::vector<int> inputs;    ///< value ids
    std::vector<int> outputs;   ///< value ids
    bool dead = false;          ///< removed by placeholder replacement
};

/** See file comment. */
class Graph {
  public:
    // ---- construction ----------------------------------------------------

    /** Add a leaf node of @p kind with one output of type @p type. */
    int addLeaf(NodeKind kind, TensorType type, const std::string& name);

    /** Shorthand for addLeaf(kPlaceholder, ...). Returns the value id. */
    int addPlaceholder(TensorType type);

    /**
     * Add an operator node consuming @p input_values; the caller
     * supplies the already-computed output types. Returns the node id.
     */
    int addOp(std::shared_ptr<OpBase> op,
              const std::vector<int>& input_values,
              const std::vector<TensorType>& output_types);

    /**
     * Backward insertion (paper Algorithm 1): make @p op the producer
     * of existing placeholder-produced values @p target_values, feeding
     * on @p input_values. The placeholder nodes die. Returns node id.
     */
    int replacePlaceholders(std::shared_ptr<OpBase> op,
                            const std::vector<int>& input_values,
                            const std::vector<int>& target_values);

    /** Promote a placeholder node to kInput or kWeight. */
    void promotePlaceholder(int node_id, NodeKind kind);

    // ---- access ----------------------------------------------------------

    const std::vector<Node>& nodes() const { return nodes_; }
    const std::vector<Value>& values() const { return values_; }
    Node& node(int id);
    const Node& node(int id) const;
    Value& value(int id);
    const Value& value(int id) const;

    /** Live node count (excludes dead placeholders). */
    int numLiveNodes() const;

    /** Live operator-node count. */
    int numOpNodes() const;

    /** Ids of nodes of the given kind (live only). */
    std::vector<int> nodesOfKind(NodeKind kind) const;

    /** Node ids of consumers of a value. */
    std::vector<int> consumers(int value_id) const;

    /** Value ids with no consumer: the model outputs. */
    std::vector<int> outputValues() const;

    /** Value ids produced by kInput leaves. */
    std::vector<int> inputValues() const;

    /** Value ids produced by kWeight leaves. */
    std::vector<int> weightValues() const;

    /** Value ids produced by live placeholder leaves. */
    std::vector<int> placeholderValues() const;

    /** All intermediate value ids usable as operator inputs. */
    std::vector<int> liveValues() const;

    /** Live node ids in topological order (inputs first). */
    std::vector<int> topoOrder() const;

    /** Live op-node ids in topological order: topoOrder() without the
     *  leaves. */
    std::vector<int> opOrder() const;

    /** True if every value type is concrete and every op concretized. */
    bool isConcrete() const;

    /**
     * Substitute @p model into every type and operator attribute,
     * producing an independent concrete graph (ops deep-copied).
     */
    Graph concretized(const Assignment& model) const;

    /** Multi-line textual rendering (stable across runs). */
    std::string toString() const;

  private:
    int newValue(TensorType type, int producer, int producer_output);

    std::vector<Node> nodes_;
    std::vector<Value> values_;
};

} // namespace nnsmith::graph

#endif // NNSMITH_GRAPH_GRAPH_H
