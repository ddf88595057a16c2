#include "baselines/concrete_builder.h"

#include "support/logging.h"

namespace nnsmith::baselines {

using ops::AttrMap;

int
addConcreteOp(Graph& graph, std::shared_ptr<ops::OpBase> op,
              const std::vector<int>& inputs)
{
    std::vector<TensorType> in_types;
    for (int v : inputs)
        in_types.push_back(graph.value(v).type);
    auto out_types = op->typeTransfer(in_types);
    for (auto& t : out_types) {
        auto folded = t.foldedConcrete();
        NNSMITH_ASSERT(folded.has_value(),
                       "concrete builder produced symbolic type");
        t = std::move(*folded);
    }
    const int node = graph.addOp(std::move(op), inputs, out_types);
    return graph.node(node).outputs[0];
}

int
appendUnary(Graph& graph, ops::UnaryKind kind, int value, DType dtype)
{
    auto op = std::make_shared<ops::UnaryOp>(kind, AttrMap{});
    op->setDTypes({{dtype}, {dtype}});
    return addConcreteOp(graph, std::move(op), {value});
}

int
appendBinary(Graph& graph, ops::BinaryKind kind, int a, int b)
{
    AttrMap attrs;
    for (int i = 0; i < ops::kMaxRank; ++i)
        attrs["bm" + std::to_string(i)] = 0;
    auto op = std::make_shared<ops::BinaryOp>(kind, attrs);
    const DType dtype = graph.value(a).type.dtype();
    const DType out =
        ops::isComparison(kind) ? DType::kBool : dtype;
    op->setDTypes({{dtype, dtype}, {out}});
    return addConcreteOp(graph, std::move(op), {a, b});
}

int
appendSliceTo(Graph& graph, int value, const Shape& target)
{
    Shape current = graph.value(value).type.concreteShape();
    NNSMITH_ASSERT(current.rank() == target.rank(),
                   "slice repair requires equal rank");
    int out = value;
    for (int axis = 0; axis < target.rank(); ++axis) {
        const int64_t want = target.dims[static_cast<size_t>(axis)];
        const int64_t have = current.dims[static_cast<size_t>(axis)];
        NNSMITH_ASSERT(want <= have, "cannot slice up");
        if (want == have)
            continue;
        auto op = std::make_shared<ops::SliceOp>(
            AttrMap{{"rank", current.rank()},
                    {"axis", axis},
                    {"start", 0},
                    {"len", want},
                    {"stride", 1}});
        const DType dtype = graph.value(out).type.dtype();
        op->setDTypes({{dtype}, {dtype}});
        out = addConcreteOp(graph, std::move(op), {out});
        current.dims[static_cast<size_t>(axis)] = want;
    }
    return out;
}

int
appendConv1x1(Graph& graph, int value)
{
    const Shape shape = graph.value(value).type.concreteShape();
    NNSMITH_ASSERT(shape.rank() == 4, "conv needs rank-4 input");
    const int64_t channels = shape.dims[1];
    const int weight = addWeight(graph, DType::kF32,
                                 Shape{{channels, channels, 1, 1}});
    auto op = std::make_shared<ops::Conv2dOp>(
        AttrMap{{"stride", 1}, {"pad", 0}});
    op->setDTypes({{DType::kF32, DType::kF32}, {DType::kF32}});
    return addConcreteOp(graph, std::move(op), {value, weight});
}

int
appendPool1x1(Graph& graph, int value, bool is_max)
{
    auto op = std::make_shared<ops::Pool2dOp>(
        is_max,
        AttrMap{{"kh", 1}, {"kw", 1}, {"stride", 1}, {"pad", 0}});
    op->setDTypes({{DType::kF32}, {DType::kF32}});
    return addConcreteOp(graph, std::move(op), {value});
}

int
appendBatchNorm(Graph& graph, int value)
{
    const Shape shape = graph.value(value).type.concreteShape();
    NNSMITH_ASSERT(shape.rank() == 4, "batchnorm needs rank-4 input");
    const Shape param{{shape.dims[1]}};
    auto op = std::make_shared<ops::BatchNormOp>(ops::AttrMap{});
    op->setDTypes({{DType::kF32, DType::kF32, DType::kF32, DType::kF32,
                    DType::kF32},
                   {DType::kF32}});
    std::vector<int> inputs = {value};
    for (int i = 0; i < 4; ++i)
        inputs.push_back(addWeight(graph, DType::kF32, param));
    return addConcreteOp(graph, std::move(op), inputs);
}

int
addInput(Graph& graph, DType dtype, const Shape& shape)
{
    return graph.addLeaf(NodeKind::kInput,
                         TensorType::concrete(dtype, shape), "");
}

int
addWeight(Graph& graph, DType dtype, const Shape& shape)
{
    return graph.addLeaf(NodeKind::kWeight,
                         TensorType::concrete(dtype, shape), "");
}

} // namespace nnsmith::baselines
