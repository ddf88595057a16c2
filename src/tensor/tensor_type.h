/**
 * @file
 * Tensor types — the paper's "abstract tensors" (§3.1).
 *
 * During generation a TensorType's shape is a vector of symbolic integer
 * expressions; after the solver produces a model the shape is
 * concretized. Rank and dtype are always concrete, matching the paper's
 * abstraction exactly.
 */
#ifndef NNSMITH_TENSOR_TENSOR_TYPE_H
#define NNSMITH_TENSOR_TENSOR_TYPE_H

#include <optional>
#include <string>
#include <vector>

#include "symbolic/expr.h"
#include "tensor/dtype.h"

namespace nnsmith::tensor {

using symbolic::Assignment;
using symbolic::ExprRef;

/** Fully concrete shape. */
struct Shape {
    std::vector<int64_t> dims;

    int rank() const { return static_cast<int>(dims.size()); }
    /** Total element count (1 for scalars/rank-0). */
    int64_t numel() const;
    bool operator==(const Shape& other) const = default;
    std::string toString() const;
};

/** Row-major strides for @p shape. */
std::vector<int64_t> rowMajorStrides(const Shape& shape);

/** An abstract tensor: dtype + (possibly symbolic) shape. */
class TensorType {
  public:
    TensorType() = default;
    TensorType(DType dtype, std::vector<ExprRef> shape);

    /** Build a fully concrete type. */
    static TensorType concrete(DType dtype, const Shape& shape);

    DType dtype() const { return dtype_; }
    int rank() const { return static_cast<int>(shape_.size()); }
    const std::vector<ExprRef>& shape() const { return shape_; }
    const ExprRef& dim(int i) const;

    /** True iff every dimension is a constant expression. */
    bool isConcrete() const;

    /**
     * Constant-fold every dimension (symbolic::simplify): the folded
     * type when every dimension then is constant, nullopt otherwise.
     * The one fold for type-transfer results over concrete inputs.
     */
    std::optional<TensorType> foldedConcrete() const;

    /** Concrete shape; requires isConcrete() or a covering model. */
    Shape concreteShape() const;
    Shape concreteShape(const Assignment& model) const;

    /** Substitute the model and return a concrete type. */
    TensorType concretized(const Assignment& model) const;

    /** Symbolic element count (product of dims; 1 for rank 0). */
    ExprRef numelExpr() const;

    std::string toString() const;

  private:
    DType dtype_ = DType::kF32;
    std::vector<ExprRef> shape_;
};

} // namespace nnsmith::tensor

#endif // NNSMITH_TENSOR_TENSOR_TYPE_H
