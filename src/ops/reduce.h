/**
 * @file
 * Reduction operators (ReduceSum/Mean/Max/Min/Prod, ArgMax/ArgMin).
 *
 * Reductions are not shape-preserving, which is precisely why prior
 * fuzzers could not connect them freely (§5.4 "Wrong scalar handling"
 * found six TVM import crashes on reduce-like operators with scalar
 * inputs).
 */
#ifndef NNSMITH_OPS_REDUCE_H
#define NNSMITH_OPS_REDUCE_H

#include "ops/op_base.h"
#include "ops/registry.h"

namespace nnsmith::ops {

/** Reduction flavours. */
enum class ReduceKind { kSum, kMean, kMax, kMin, kProd };

/** Canonical name, e.g. "ReduceSum". */
std::string reduceKindName(ReduceKind kind);

/**
 * Reduce along one axis; rank, axis and keepdims are sampled at
 * construction (the registry enumerates per-rank instances implicitly
 * through random construction, mirroring the paper's per-rank specs).
 */
class ReduceOp final : public OpBase {
  public:
    ReduceOp(ReduceKind kind, SymbolTable& symbols, Rng& rng);
    ReduceOp(ReduceKind kind, const AttrMap& attrs);

    std::string name() const override { return reduceKindName(kind_); }
    int numInputs() const override { return 1; }
    std::vector<DTypeCombo> dtypeCombos() const override;
    std::vector<std::vector<int>> inputRanks() const override;
    std::vector<Pred>
    requirements(const std::vector<TensorType>& inputs) const override;
    std::vector<TensorType>
    typeTransfer(const std::vector<TensorType>& inputs) const override;
    std::optional<std::vector<TensorType>>
    inferInputTypes(const std::vector<TensorType>& outputs,
                    SymbolTable& symbols) const override;
    std::unique_ptr<OpBase> clone() const override;

    std::vector<Tensor>
    execute(const std::vector<Tensor>& inputs) const override;
    std::vector<Tensor>
    backward(const std::vector<Tensor>& inputs,
             const std::vector<Tensor>& outputs,
             const std::vector<Tensor>& grad_outputs) const override;

    ReduceKind kind() const { return kind_; }
    int rank() const { return static_cast<int>(attrValue("rank")); }
    int axis() const { return static_cast<int>(attrValue("axis")); }
    bool keepDims() const { return attrValue("keepdims") != 0; }

  private:
    ReduceKind kind_;
};

/** Index-of-extremum along one axis; output dtype is i64. */
class ArgExtremumOp final : public OpBase {
  public:
    ArgExtremumOp(bool is_max, SymbolTable& symbols, Rng& rng);
    ArgExtremumOp(bool is_max, const AttrMap& attrs);

    std::string name() const override { return isMax_ ? "ArgMax" : "ArgMin"; }
    int numInputs() const override { return 1; }
    std::vector<DTypeCombo> dtypeCombos() const override;
    std::vector<std::vector<int>> inputRanks() const override;
    std::vector<Pred>
    requirements(const std::vector<TensorType>& inputs) const override;
    std::vector<TensorType>
    typeTransfer(const std::vector<TensorType>& inputs) const override;
    std::unique_ptr<OpBase> clone() const override;

    std::vector<Tensor>
    execute(const std::vector<Tensor>& inputs) const override;

    int rank() const { return static_cast<int>(attrValue("rank")); }
    int axis() const { return static_cast<int>(attrValue("axis")); }

  private:
    bool isMax_;
};

/** Iteration helper shared by reduce kernels: visits each output slice. */
struct AxisSlices {
    AxisSlices(const tensor::Shape& shape, int axis);

    int64_t numSlices;   ///< number of 1-D slices along `axis`
    int64_t axisDim;
    int64_t axisStride;

    /** Base flat offset of slice @p s. */
    int64_t base(int64_t s) const;

  private:
    tensor::Shape shape_;
    std::vector<int64_t> strides_;
    int axis_;
};

} // namespace nnsmith::ops

#endif // NNSMITH_OPS_REDUCE_H
