#include "tensor/tensor_type.h"

#include "support/logging.h"

namespace nnsmith::tensor {

using symbolic::Expr;

int64_t
Shape::numel() const
{
    int64_t n = 1;
    for (int64_t d : dims)
        n *= d;
    return n;
}

std::string
Shape::toString() const
{
    std::string s = "[";
    for (size_t i = 0; i < dims.size(); ++i) {
        if (i)
            s += ",";
        s += std::to_string(dims[i]);
    }
    return s + "]";
}

std::vector<int64_t>
rowMajorStrides(const Shape& shape)
{
    std::vector<int64_t> strides(shape.dims.size(), 1);
    for (int i = shape.rank() - 2; i >= 0; --i)
        strides[i] = strides[i + 1] * shape.dims[i + 1];
    return strides;
}

TensorType::TensorType(DType dtype, std::vector<ExprRef> shape)
    : dtype_(dtype), shape_(std::move(shape))
{
    for (const auto& d : shape_)
        NNSMITH_ASSERT(d != nullptr, "null dim in TensorType");
}

TensorType
TensorType::concrete(DType dtype, const Shape& shape)
{
    std::vector<ExprRef> dims;
    dims.reserve(shape.dims.size());
    for (int64_t d : shape.dims)
        dims.push_back(Expr::constant(d));
    return TensorType(dtype, std::move(dims));
}

const ExprRef&
TensorType::dim(int i) const
{
    NNSMITH_ASSERT(i >= 0 && i < rank(), "dim index ", i, " out of rank ",
                   rank());
    return shape_[static_cast<size_t>(i)];
}

bool
TensorType::isConcrete() const
{
    for (const auto& d : shape_) {
        if (!d->isConst())
            return false;
    }
    return true;
}

std::optional<TensorType>
TensorType::foldedConcrete() const
{
    std::vector<ExprRef> folded;
    folded.reserve(shape_.size());
    for (const auto& d : shape_)
        folded.push_back(symbolic::simplify(d));
    TensorType out(dtype_, std::move(folded));
    if (!out.isConcrete())
        return std::nullopt;
    return out;
}

Shape
TensorType::concreteShape() const
{
    Shape s;
    s.dims.reserve(shape_.size());
    for (const auto& d : shape_) {
        NNSMITH_ASSERT(d->isConst(), "shape not concrete: ", toString());
        s.dims.push_back(d->value());
    }
    return s;
}

Shape
TensorType::concreteShape(const Assignment& model) const
{
    Shape s;
    s.dims.reserve(shape_.size());
    for (const auto& d : shape_)
        s.dims.push_back(symbolic::evaluate(d, model));
    return s;
}

TensorType
TensorType::concretized(const Assignment& model) const
{
    return concrete(dtype_, concreteShape(model));
}

ExprRef
TensorType::numelExpr() const
{
    ExprRef n = Expr::constant(1);
    for (const auto& d : shape_)
        n = n * d;
    return n;
}

std::string
TensorType::toString() const
{
    std::string s = dtypeName(dtype_) + "[";
    for (size_t i = 0; i < shape_.size(); ++i) {
        if (i)
            s += ",";
        s += symbolic::toString(shape_[i]);
    }
    return s + "]";
}

} // namespace nnsmith::tensor
