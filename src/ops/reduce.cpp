#include "ops/reduce.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"
#include "tensor/kernels.h"

namespace nnsmith::ops {

using tensor::DType;
using tensor::Shape;

namespace {


/** Output shape of reducing @p in along @p axis. */
std::vector<symbolic::ExprRef>
reducedShape(const TensorType& in, int axis, bool keepdims)
{
    std::vector<symbolic::ExprRef> dims;
    for (int i = 0; i < in.rank(); ++i) {
        if (i == axis) {
            if (keepdims)
                dims.push_back(symbolic::Expr::constant(1));
            continue;
        }
        dims.push_back(in.dim(i));
    }
    return dims;
}

} // namespace

AxisSlices::AxisSlices(const Shape& shape, int axis)
    : shape_(shape), strides_(rowMajorStrides(shape)), axis_(axis)
{
    axisDim = shape.dims[static_cast<size_t>(axis)];
    axisStride = strides_[static_cast<size_t>(axis)];
    numSlices = shape.numel() / std::max<int64_t>(axisDim, 1);
}

int64_t
AxisSlices::base(int64_t s) const
{
    int64_t rem = s;
    int64_t offset = 0;
    for (int i = shape_.rank() - 1; i >= 0; --i) {
        if (i == axis_)
            continue;
        const int64_t dim = shape_.dims[static_cast<size_t>(i)];
        offset += (rem % dim) * strides_[static_cast<size_t>(i)];
        rem /= dim;
    }
    return offset;
}

std::string
reduceKindName(ReduceKind kind)
{
    switch (kind) {
      case ReduceKind::kSum: return "ReduceSum";
      case ReduceKind::kMean: return "ReduceMean";
      case ReduceKind::kMax: return "ReduceMax";
      case ReduceKind::kMin: return "ReduceMin";
      case ReduceKind::kProd: return "ReduceProd";
    }
    NNSMITH_PANIC("bad ReduceKind");
}

// ---- ReduceOp --------------------------------------------------------------

ReduceOp::ReduceOp(ReduceKind kind, SymbolTable&, Rng& rng) : kind_(kind)
{
    const int64_t rank = rng.uniformInt(1, 4);
    addFixedAttr("rank", rank);
    addFixedAttr("axis", rng.uniformInt(0, rank - 1));
    addFixedAttr("keepdims", rng.chance(0.5) ? 1 : 0);
}

ReduceOp::ReduceOp(ReduceKind kind, const AttrMap& attrs) : kind_(kind)
{
    addFixedAttr("rank", attrs.at("rank"));
    addFixedAttr("axis", attrs.at("axis"));
    addFixedAttr("keepdims", attrs.at("keepdims"));
    concretizeFromMap(attrs);
}

std::vector<DTypeCombo>
ReduceOp::dtypeCombos() const
{
    std::vector<DTypeCombo> combos;
    const auto& ins = kind_ == ReduceKind::kMean ? tensor::floatDTypes()
                                                 : tensor::numericDTypes();
    for (DType t : ins)
        combos.push_back({{t}, {t}});
    return combos;
}

std::vector<std::vector<int>>
ReduceOp::inputRanks() const
{
    return {{rank()}};
}

std::vector<Pred>
ReduceOp::requirements(const std::vector<TensorType>&) const
{
    return {};
}

std::vector<TensorType>
ReduceOp::typeTransfer(const std::vector<TensorType>& inputs) const
{
    return {TensorType(inputs[0].dtype(),
                       reducedShape(inputs[0], axis(), keepDims()))};
}

std::optional<std::vector<TensorType>>
ReduceOp::inferInputTypes(const std::vector<TensorType>& outputs,
                          SymbolTable& symbols) const
{
    const int out_rank = keepDims() ? rank() : rank() - 1;
    if (outputs[0].rank() != out_rank)
        return std::nullopt;
    const DType in = inDTypes().empty() ? outputs[0].dtype() : inDTypes()[0];
    return {{freshTensorType(symbols, in, rank(), "rd")}};
}

std::unique_ptr<OpBase>
ReduceOp::clone() const
{
    return std::make_unique<ReduceOp>(*this);
}

std::vector<Tensor>
ReduceOp::execute(const std::vector<Tensor>& inputs) const
{
    // Accumulation rule: float reduces accumulate in double (the
    // historical semantics); integer reduces accumulate natively with
    // two's-complement wrap, so i64 sums/products beyond 2^53 are
    // exact (modulo 2^64) rather than silently rounded.
    const auto init = [kind = kind_](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_floating_point_v<T>) {
            switch (kind) {
              case ReduceKind::kProd: return 1.0;
              case ReduceKind::kMax: return -HUGE_VAL;
              case ReduceKind::kMin: return HUGE_VAL;
              default: return 0.0;
            }
        } else {
            switch (kind) {
              case ReduceKind::kProd: return T{1};
              case ReduceKind::kMax: return std::numeric_limits<T>::min();
              case ReduceKind::kMin: return std::numeric_limits<T>::max();
              default: return T{0};
            }
        }
    };
    const auto combine = [kind = kind_](auto acc, auto v) {
        using Acc = decltype(acc);
        if constexpr (std::is_floating_point_v<Acc>) {
            const double d = static_cast<double>(v);
            switch (kind) {
              case ReduceKind::kProd: return acc * d;
              case ReduceKind::kMax: return std::max(acc, d);
              case ReduceKind::kMin: return std::min(acc, d);
              default: return acc + d;
            }
        } else {
            const Acc t = static_cast<Acc>(v);
            switch (kind) {
              case ReduceKind::kProd: return tensor::wrapMul(acc, t);
              case ReduceKind::kMax: return std::max(acc, t);
              case ReduceKind::kMin: return std::min(acc, t);
              default: return tensor::wrapAdd(acc, t);
            }
        }
    };
    const auto finalize = [kind = kind_](auto acc, int64_t axis_dim) {
        using Acc = decltype(acc);
        if constexpr (std::is_floating_point_v<Acc>) {
            return kind == ReduceKind::kMean
                       ? acc / static_cast<double>(axis_dim)
                       : acc;
        } else {
            return acc; // Mean is float-only by dtypeCombos()
        }
    };
    return {tensor::applyReduce(inputs[0], axis(), keepDims(), init,
                                combine, finalize)};
}

std::vector<Tensor>
ReduceOp::backward(const std::vector<Tensor>& inputs,
                   const std::vector<Tensor>& outputs,
                   const std::vector<Tensor>& grad_outputs) const
{
    if (!tensor::isFloat(inputs[0].dtype()))
        return {};
    const Tensor& x = inputs[0];
    const Tensor& gy = grad_outputs[0];
    const AxisSlices slices(x.shape(), axis());
    Tensor gx = Tensor::zeros(x.dtype(), x.shape());
    const ReduceKind kind = kind_;
    tensor::dispatchDType(x.dtype(), [&](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_floating_point_v<T>) {
            const T* px = x.data<T>();
            const T* py = outputs[0].data<T>();
            const T* pg = gy.data<T>();
            T* pd = gx.data<T>();
            for (int64_t s = 0; s < slices.numSlices; ++s) {
                const int64_t base = slices.base(s);
                const double g = pg[s];
                const double y = py[s];
                for (int64_t k = 0; k < slices.axisDim; ++k) {
                    const int64_t idx = base + k * slices.axisStride;
                    const double v = px[idx];
                    double d = 0.0;
                    switch (kind) {
                      case ReduceKind::kSum: d = 1.0; break;
                      case ReduceKind::kMean:
                        d = 1.0 / static_cast<double>(slices.axisDim);
                        break;
                      case ReduceKind::kProd:
                        d = v != 0.0 ? y / v : proxyAlpha();
                        break;
                      case ReduceKind::kMax:
                        d = v == y ? 1.0 : proxyAlpha();
                        break;
                      case ReduceKind::kMin:
                        d = v == y ? 1.0 : proxyAlpha();
                        break;
                    }
                    pd[idx] = static_cast<T>(g * d);
                }
            }
        }
    });
    return {gx};
}

// ---- ArgExtremumOp ---------------------------------------------------------

ArgExtremumOp::ArgExtremumOp(bool is_max, SymbolTable&, Rng& rng)
    : isMax_(is_max)
{
    const int64_t rank = rng.uniformInt(1, 4);
    addFixedAttr("rank", rank);
    addFixedAttr("axis", rng.uniformInt(0, rank - 1));
}

ArgExtremumOp::ArgExtremumOp(bool is_max, const AttrMap& attrs)
    : isMax_(is_max)
{
    addFixedAttr("rank", attrs.at("rank"));
    addFixedAttr("axis", attrs.at("axis"));
    concretizeFromMap(attrs);
}

std::vector<DTypeCombo>
ArgExtremumOp::dtypeCombos() const
{
    std::vector<DTypeCombo> combos;
    for (DType t : tensor::numericDTypes())
        combos.push_back({{t}, {DType::kI64}});
    return combos;
}

std::vector<std::vector<int>>
ArgExtremumOp::inputRanks() const
{
    return {{rank()}};
}

std::vector<Pred>
ArgExtremumOp::requirements(const std::vector<TensorType>&) const
{
    return {};
}

std::vector<TensorType>
ArgExtremumOp::typeTransfer(const std::vector<TensorType>& inputs) const
{
    return {TensorType(DType::kI64,
                       reducedShape(inputs[0], axis(), /*keepdims=*/false))};
}

std::unique_ptr<OpBase>
ArgExtremumOp::clone() const
{
    return std::make_unique<ArgExtremumOp>(*this);
}

std::vector<Tensor>
ArgExtremumOp::execute(const std::vector<Tensor>& inputs) const
{
    const Tensor& x = inputs[0];
    const AxisSlices slices(x.shape(), axis());
    Shape out_shape;
    for (int i = 0; i < x.rank(); ++i) {
        if (i != axis())
            out_shape.dims.push_back(x.shape().dims[static_cast<size_t>(i)]);
    }
    Tensor out = Tensor::zeros(DType::kI64, out_shape);
    int64_t* dst = out.data<int64_t>();
    const bool is_max = isMax_;
    tensor::dispatchDType(x.dtype(), [&](auto tag) {
        using Tag = decltype(tag);
        const auto* src = x.data<Tag>();
        for (int64_t s = 0; s < slices.numSlices; ++s) {
            const int64_t base = slices.base(s);
            auto best = src[base];
            int64_t best_k = 0;
            for (int64_t k = 1; k < slices.axisDim; ++k) {
                const auto v = src[base + k * slices.axisStride];
                if ((is_max && v > best) || (!is_max && v < best)) {
                    best = v;
                    best_k = k;
                }
            }
            dst[s] = best_k;
        }
    });
    return {out};
}

void
registerReduceOps(OpRegistry& registry)
{
    auto register_reduce = [&registry](ReduceKind kind) {
        OpMeta meta;
        meta.name = reduceKindName(kind);
        meta.category = OpCategory::kReduce;
        meta.graphFuzzerCompatible = false; // shape-changing, no repair rule
        meta.make = [kind](SymbolTable& symbols, Rng& rng) {
            return std::make_unique<ReduceOp>(kind, symbols, rng);
        };
        meta.reconstruct = [kind](const AttrMap& attrs) {
            return std::make_unique<ReduceOp>(kind, attrs);
        };
        registry.registerOp(std::move(meta));
    };
    register_reduce(ReduceKind::kSum);
    register_reduce(ReduceKind::kMean);
    register_reduce(ReduceKind::kMax);
    register_reduce(ReduceKind::kMin);
    register_reduce(ReduceKind::kProd);

    auto register_arg = [&registry](bool is_max) {
        OpMeta meta;
        meta.name = is_max ? "ArgMax" : "ArgMin";
        meta.category = OpCategory::kReduce;
        meta.make = [is_max](SymbolTable& symbols, Rng& rng) {
            return std::make_unique<ArgExtremumOp>(is_max, symbols, rng);
        };
        meta.reconstruct = [is_max](const AttrMap& attrs) {
            return std::make_unique<ArgExtremumOp>(is_max, attrs);
        };
        registry.registerOp(std::move(meta));
    };
    register_arg(true);
    register_arg(false);
}

} // namespace nnsmith::ops
