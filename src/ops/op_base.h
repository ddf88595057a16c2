/**
 * @file
 * Operator specifications — the paper's `AbsOpBase` (§3.1, Listing 2).
 *
 * Every operator is described by:
 *  - a data-type matrix (`dtypeCombos`): which input/output element-type
 *    combinations are legal;
 *  - allowed input ranks (`inputRanks`);
 *  - `requirements(inputs)`: predicates its inputs and attributes must
 *    satisfy (the paper's `requires`);
 *  - `typeTransfer(inputs)`: symbolic output types;
 *  - `inferInputTypes(outputs)`: input types with fresh shape variables,
 *    enabling backward insertion (the paper's `infer_input_type`).
 *
 * Attributes (kernel sizes, strides, pads, …) are symbolic integers
 * created from the generation session's SymbolTable; after the solver
 * produces a model, `concretize` bakes their concrete values so the
 * interpreter and backends can execute the node.
 */
#ifndef NNSMITH_OPS_OP_BASE_H
#define NNSMITH_OPS_OP_BASE_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "symbolic/pred.h"
#include "tensor/tensor.h"
#include "tensor/tensor_type.h"

namespace nnsmith::ops {

using symbolic::Assignment;
using symbolic::ExprRef;
using symbolic::Pred;
using symbolic::SymbolTable;
using tensor::DType;
using tensor::Tensor;
using tensor::TensorType;

/** Maximum tensor rank the generator will produce. */
inline constexpr int kMaxRank = 5;

/** Concrete attribute values keyed by name (serialization interchange). */
using AttrMap = std::map<std::string, int64_t>;

/** One legal assignment of element types to inputs and outputs. */
struct DTypeCombo {
    std::vector<DType> in;
    std::vector<DType> out;
};

/** Specialized binning strategies (paper §4, the C* constraints). */
enum class AttrBinning {
    kDefault,     ///< exponential bins [2^(i-1), 2^i)
    kWithZero,    ///< default plus an extra {0} bin (Conv2d padding)
    kWithNegative,///< default plus {0} and negative bins (Pad padding)
    kNone,        ///< never binned (e.g. Slice handles its own ranges)
};

/** A named symbolic operator attribute. */
struct Attr {
    std::string name;
    ExprRef expr;              ///< symbolic value during generation
    int64_t value = 0;         ///< concrete value after concretize()
    AttrBinning binning = AttrBinning::kDefault;
};

/** Abstract operator specification + per-instance attribute state. */
class OpBase {
  public:
    virtual ~OpBase() = default;

    /** Operator name, e.g. "Conv2d". */
    virtual std::string name() const = 0;

    virtual int numInputs() const = 0;
    virtual int numOutputs() const { return 1; }

    /** Legal input/output element-type combinations. */
    virtual std::vector<DTypeCombo> dtypeCombos() const = 0;

    /**
     * Allowed ranks per input. An empty inner vector means "any rank in
     * [0, kMaxRank]".
     */
    virtual std::vector<std::vector<int>> inputRanks() const = 0;

    /** Constraints on inputs + attributes (paper's `requires`). */
    virtual std::vector<Pred>
    requirements(const std::vector<TensorType>& inputs) const = 0;

    /** Symbolic output types (paper's `type_transfer`). */
    virtual std::vector<TensorType>
    typeTransfer(const std::vector<TensorType>& inputs) const = 0;

    /**
     * For backward insertion: given desired output types, construct
     * input types with fresh shape variables, or nullopt when this
     * operator does not support backward insertion.
     */
    virtual std::optional<std::vector<TensorType>>
    inferInputTypes(const std::vector<TensorType>& outputs,
                    SymbolTable& symbols) const;

    /** Deep copy (attributes included). */
    virtual std::unique_ptr<OpBase> clone() const = 0;

    // ---- execution (reference semantics, shared by all backends) ---------

    /**
     * Reference kernel. Requires a concretized op and concrete inputs
     * matching the chosen dtype combo. This is the only execution
     * entry point: batched execution (exec/batched.h) calls it once
     * per lane, so there is no per-batch kernel to keep in step.
     */
    virtual std::vector<Tensor>
    execute(const std::vector<Tensor>& inputs) const = 0;

    /**
     * Reverse-mode gradient: given inputs, the forward outputs and the
     * output cotangents, return cotangents for each input (empty
     * tensors for non-differentiable inputs such as bool/int).
     *
     * The default returns an empty vector, meaning "no gradient flows
     * through this operator" — Algorithm 3 then falls back to proxy
     * derivatives or random restarts.
     */
    virtual std::vector<Tensor>
    backward(const std::vector<Tensor>& inputs,
             const std::vector<Tensor>& outputs,
             const std::vector<Tensor>& grad_outputs) const;

    // ---- attribute state -------------------------------------------------

    std::vector<Attr>& attrs() { return attrs_; }
    const std::vector<Attr>& attrs() const { return attrs_; }

    /** Concrete attribute value by name; panics if not concretized. */
    int64_t attrValue(const std::string& name) const;

    /** Symbolic attribute expression by name. */
    const ExprRef& attrExpr(const std::string& name) const;

    /** Bake attribute values from a solver model. */
    virtual void concretize(const Assignment& model);

    /** Bake attribute values from a serialized attribute map. */
    void concretizeFromMap(const AttrMap& attrs);

    /** Concrete attribute values as a map (requires isConcretized()). */
    AttrMap attrMap() const;

    /** True once concretize() ran (or the op has no attributes). */
    bool isConcretized() const { return concretized_ || attrs_.empty(); }

    // ---- chosen element types (set by the generator at insertion) --------

    const std::vector<DType>& inDTypes() const { return inDTypes_; }
    const std::vector<DType>& outDTypes() const { return outDTypes_; }
    void setDTypes(const DTypeCombo& combo);

    /** Pretty one-line description: "Conv2d{kh=3,kw=3,...}". */
    std::string describe() const;

  protected:
    /** Register a fresh symbolic attribute. */
    ExprRef addAttr(SymbolTable& symbols, const std::string& name,
                    AttrBinning binning = AttrBinning::kDefault);

    /** Register a fixed (non-symbolic) attribute, e.g. a chosen axis. */
    void addFixedAttr(const std::string& name, int64_t value);

    std::vector<Attr> attrs_;
    std::vector<DType> inDTypes_;
    std::vector<DType> outDTypes_;
    bool concretized_ = false;
};

/**
 * Proxy-derivative control (paper §3.3). When enabled (default),
 * zero-gradient or non-differentiable regions contribute a small
 * trend-signed alpha instead of 0, letting gradient search escape
 * plateaus (Floor/Ceil/Round/ReLU's negative side/...). Fig. 11's
 * "Gradient" vs "Gradient (Proxy Deriv.)" ablation toggles this.
 * The setting is per thread.
 */
double proxyAlpha();
void setProxyDerivativesEnabled(bool enabled);
bool proxyDerivativesEnabled();

/** Shared helper: dims of @p t all >= 1 (Algorithm 1, line 4). */
std::vector<Pred> allDimsPositive(const TensorType& t);

/** Shared helper: shapes of @p a and @p b are element-wise equal. */
std::vector<Pred> shapesEqual(const TensorType& a, const TensorType& b);

/** Fresh tensor type of @p rank with dims named @p hint. */
TensorType freshTensorType(SymbolTable& symbols, DType dtype, int rank,
                           const std::string& hint);

} // namespace nnsmith::ops

#endif // NNSMITH_OPS_OP_BASE_H
