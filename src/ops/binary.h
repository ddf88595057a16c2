/**
 * @file
 * Elementwise two-input operators with numpy-style broadcasting:
 * arithmetic (Add..Pow), comparisons (Equal/Greater/Less over every
 * dtype, bool output) and boolean logic (And/Or/Xor).
 *
 * Div, Mod and Pow are vulnerable operators (paper Table 1). Integer
 * Div/Mod follow the defined semantics in tensor/kernels.h (C++
 * truncating division; div/mod-by-zero yields 0 and poisons the
 * output).
 */
#ifndef NNSMITH_OPS_BINARY_H
#define NNSMITH_OPS_BINARY_H

#include "ops/broadcast.h"
#include "ops/op_base.h"
#include "ops/registry.h"

namespace nnsmith::ops {

/** Supported two-input elementwise functions. */
enum class BinaryKind {
    kAdd,
    kSub,
    kMul,
    kDiv,
    kMod,
    kPow,
    kMax,
    kMin,
    kEqual,
    kGreater,
    kLess,
    kAnd,
    kOr,
    kXor,
};

/** Canonical operator name of a binary kind, e.g. "Add". */
std::string binaryKindName(BinaryKind kind);

/** True for Equal/Greater/Less (bool output). */
bool isComparison(BinaryKind kind);

/** True for And/Or/Xor (bool input and output). */
bool isLogical(BinaryKind kind);

/**
 * Elementwise binary operator with a broadcast mask sampled at
 * construction (see ops/broadcast.h for why masks exist).
 */
class BinaryOp final : public OpBase {
  public:
    BinaryOp(BinaryKind kind, SymbolTable& symbols, Rng& rng);
    BinaryOp(BinaryKind kind, const AttrMap& attrs);

    std::string name() const override { return binaryKindName(kind_); }
    int numInputs() const override { return 2; }
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

    BinaryKind kind() const { return kind_; }
    std::vector<int64_t> mask() const;

  private:
    BinaryKind kind_;
};

/** Scalar semantics of a binary kind (used by kernels and TIRLite). */
double applyBinaryKind(BinaryKind kind, double a, double b);

} // namespace nnsmith::ops

#endif // NNSMITH_OPS_BINARY_H
