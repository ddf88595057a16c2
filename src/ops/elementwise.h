/**
 * @file
 * Elementwise one-input operators: activations, trigonometry,
 * exponentials, rounding, plus Softmax and Clip.
 *
 * Several of these are the paper's "vulnerable operators" (Table 1):
 * Asin/Log/Log2/Sqrt produce NaN outside their domain and Exp overflows
 * to Inf — exactly what gradient-guided value search must steer away
 * from.
 */
#ifndef NNSMITH_OPS_ELEMENTWISE_H
#define NNSMITH_OPS_ELEMENTWISE_H

#include "ops/op_base.h"
#include "ops/registry.h"

namespace nnsmith::ops {

/** The supported elementwise unary functions. */
enum class UnaryKind {
    kRelu,
    kLeakyRelu,
    kSigmoid,
    kTanh,
    kSin,
    kCos,
    kAsin,
    kAcos,
    kAtan,
    kAbs,
    kNeg,
    kExp,
    kLog,
    kLog2,
    kSqrt,
    kFloor,
    kCeil,
    kRound,
    kNot, ///< boolean negation
};

/** Canonical operator name of a unary kind, e.g. "Sqrt". */
std::string unaryKindName(UnaryKind kind);

/** Shape-preserving elementwise unary operator. */
class UnaryOp final : public OpBase {
  public:
    UnaryOp(UnaryKind kind, SymbolTable& symbols, Rng& rng);
    UnaryOp(UnaryKind kind, const AttrMap& attrs);

    std::string name() const override { return unaryKindName(kind_); }
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

    UnaryKind kind() const { return kind_; }

  private:
    UnaryKind kind_;
};

/** Softmax along a fixed axis (rank and axis chosen at construction). */
class SoftmaxOp final : public OpBase {
  public:
    SoftmaxOp(SymbolTable& symbols, Rng& rng);
    explicit SoftmaxOp(const AttrMap& attrs);

    std::string name() const override { return "Softmax"; }
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

    int rank() const;
    int axis() const;
};

/** Clamp to a fixed [lo, hi] interval chosen at construction. */
class ClipOp final : public OpBase {
  public:
    ClipOp(SymbolTable& symbols, Rng& rng);
    explicit ClipOp(const AttrMap& attrs);

    std::string name() const override { return "Clip"; }
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
};

} // namespace nnsmith::ops

#endif // NNSMITH_OPS_ELEMENTWISE_H
