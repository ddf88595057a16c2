#include "baselines/graphfuzzer.h"

#include <algorithm>

#include "baselines/concrete_builder.h"
#include "exec/interpreter.h"
#include "gen/generator.h"

namespace nnsmith::baselines {

using ops::AttrMap;
using ops::BinaryKind;
using ops::UnaryKind;

GraphFuzzerLite::GraphFuzzerLite(Options options, uint64_t seed)
    : options_(options), rng_(seed)
{
}

graph::Graph
GraphFuzzerLite::buildModel()
{
    Graph graph;
    std::vector<int> values;

    // A few float inputs with small random shapes. Mostly f32, with
    // occasional f64 models (GraphFuzzer supports both precisions —
    // which is how it finds the f64 Relu->Clip fusion bug, §5.4).
    const DType dtype = rng_.chance(0.12) ? DType::kF64 : DType::kF32;
    const int n_inputs = static_cast<int>(rng_.uniformInt(1, 2));
    for (int i = 0; i < n_inputs; ++i) {
        Shape shape;
        const int rank = static_cast<int>(rng_.uniformInt(2, 4));
        static const int64_t kDims[] = {1, 2, 3, 4, 6, 8};
        for (int d = 0; d < rank; ++d)
            shape.dims.push_back(kDims[rng_.index(6)]);
        values.push_back(addInput(graph, dtype, shape));
    }

    static const std::vector<UnaryKind> kUnary = {
        UnaryKind::kRelu,  UnaryKind::kSigmoid, UnaryKind::kTanh,
        UnaryKind::kAbs,   UnaryKind::kSin,     UnaryKind::kCos,
        UnaryKind::kFloor, UnaryKind::kCeil,    UnaryKind::kAtan,
        UnaryKind::kNeg};
    static const std::vector<BinaryKind> kBinary = {
        BinaryKind::kAdd, BinaryKind::kSub, BinaryKind::kMul,
        BinaryKind::kMax, BinaryKind::kMin};

    int ops_added = 0;
    while (ops_added < options_.targetOps) {
        const int choice = static_cast<int>(rng_.index(8));
        const int value = values[rng_.index(values.size())];
        const Shape shape = graph.value(value).type.concreteShape();
        switch (choice) {
          case 0:
          case 1: // unary activation (the easy case)
            values.push_back(appendUnary(
                graph, rng_.pick(kUnary), value,
                graph.value(value).type.dtype()));
            ++ops_added;
            break;
          case 2: { // binary with slice repair (the M1 pattern)
            // Find a same-rank partner; repair shapes to the
            // elementwise minimum via stride-1 slices.
            std::vector<int> partners;
            for (int v : values) {
                if (graph.value(v).type.rank() == shape.rank())
                    partners.push_back(v);
            }
            if (partners.empty())
                break;
            const int other = partners[rng_.index(partners.size())];
            const Shape other_shape =
                graph.value(other).type.concreteShape();
            Shape target = shape;
            for (int d = 0; d < shape.rank(); ++d)
                target.dims[static_cast<size_t>(d)] = std::min(
                    shape.dims[static_cast<size_t>(d)],
                    other_shape.dims[static_cast<size_t>(d)]);
            const int a = appendSliceTo(graph, value, target);
            const int b = appendSliceTo(graph, other, target);
            values.push_back(
                appendBinary(graph, rng_.pick(kBinary), a, b));
            ++ops_added;
            break;
          }
          case 3: // shape-preserving Conv2d instance (k=1, s=1)
            if (shape.rank() == 4 &&
                graph.value(value).type.dtype() == DType::kF32) {
                values.push_back(appendConv1x1(graph, value));
                ++ops_added;
            }
            break;
          case 4: // shape-preserving pooling instance
            if (shape.rank() == 4 &&
                graph.value(value).type.dtype() == DType::kF32) {
                values.push_back(
                    appendPool1x1(graph, value, rng_.chance(0.5)));
                ++ops_added;
            }
            break;
          case 5: // full-extent stride-1 slice (their repair block)
            values.push_back(appendSliceTo(
                graph, value,
                [&] {
                    Shape t = shape;
                    if (t.numel() > 1) {
                        auto& d = t.dims[rng_.index(t.dims.size())];
                        d = std::max<int64_t>(1, d - 1);
                    }
                    return t;
                }()));
            ++ops_added;
            break;
          case 6: // BatchNorm on rank-4
            if (shape.rank() == 4 &&
                graph.value(value).type.dtype() == DType::kF32) {
                values.push_back(appendBatchNorm(graph, value));
                ++ops_added;
            }
            break;
          default: { // Softmax (shape preserving)
            auto op = std::make_shared<ops::SoftmaxOp>(AttrMap{
                {"rank", shape.rank()},
                {"axis", shape.rank() == 0
                             ? 0
                             : static_cast<int64_t>(
                                   rng_.index(static_cast<size_t>(
                                       std::max(shape.rank(), 1))))}});
            if (shape.rank() >= 1) {
                const DType dt = graph.value(value).type.dtype();
                op->setDTypes({{dt}, {dt}});
                values.push_back(
                    addConcreteOp(graph, std::move(op), {value}));
                ++ops_added;
            }
            break;
          }
        }
    }
    return graph;
}

fuzz::IterationOutcome
GraphFuzzerLite::iterate(
    const std::vector<backends::Backend*>& backend_list)
{
    const Graph graph = buildModel();
    // GraphFuzzer has no value search either; plain random inputs.
    const auto leaves = exec::randomLeaves(graph, rng_, 0.0, 1.0);
    auto outcome =
        fuzz::executeGraphCase(graph, leaves, backend_list, options_.cost);
    // No constraint solving: generation is cheaper than NNSmith's.
    outcome.cost += 60 * graph.numOpNodes();
    outcome.instanceKeys = gen::instanceKeys(graph);
    return outcome;
}

} // namespace nnsmith::baselines
