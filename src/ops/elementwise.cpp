#include "ops/elementwise.h"

#include <cmath>

#include "support/logging.h"
#include "tensor/kernels.h"

namespace nnsmith::ops {

using symbolic::Expr;
using tensor::Shape;

namespace {

double
applyUnary(UnaryKind kind, double x)
{
    switch (kind) {
      case UnaryKind::kRelu: return x > 0 ? x : 0.0;
      case UnaryKind::kLeakyRelu: return x > 0 ? x : 0.01 * x;
      case UnaryKind::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
      case UnaryKind::kTanh: return std::tanh(x);
      case UnaryKind::kSin: return std::sin(x);
      case UnaryKind::kCos: return std::cos(x);
      case UnaryKind::kAsin: return std::asin(x);
      case UnaryKind::kAcos: return std::acos(x);
      case UnaryKind::kAtan: return std::atan(x);
      case UnaryKind::kAbs: return std::abs(x);
      case UnaryKind::kNeg: return -x;
      case UnaryKind::kExp: return std::exp(x);
      case UnaryKind::kLog: return std::log(x);
      case UnaryKind::kLog2: return std::log2(x);
      case UnaryKind::kSqrt: return std::sqrt(x);
      case UnaryKind::kFloor: return std::floor(x);
      case UnaryKind::kCeil: return std::ceil(x);
      case UnaryKind::kRound: return std::nearbyint(x);
      case UnaryKind::kNot: return x != 0.0 ? 0.0 : 1.0;
    }
    NNSMITH_PANIC("bad UnaryKind");
}

/**
 * d f / d x with proxy derivatives: zero-gradient regions get a small
 * trend-signed alpha; non-differentiable points use the nearest
 * defined derivative (paper §3.3, "Proxy derivative").
 */
double
unaryDerivative(UnaryKind kind, double x, double y)
{
    switch (kind) {
      case UnaryKind::kRelu:
        return x > 0 ? 1.0 : proxyAlpha(); // monotonic: positive proxy
      case UnaryKind::kLeakyRelu:
        return x > 0 ? 1.0 : 0.01;
      case UnaryKind::kSigmoid:
        return y * (1.0 - y);
      case UnaryKind::kTanh:
        return 1.0 - y * y;
      case UnaryKind::kSin: return std::cos(x);
      case UnaryKind::kCos: return -std::sin(x);
      case UnaryKind::kAsin: return 1.0 / std::sqrt(1.0 - x * x);
      case UnaryKind::kAcos: return -1.0 / std::sqrt(1.0 - x * x);
      case UnaryKind::kAtan: return 1.0 / (1.0 + x * x);
      case UnaryKind::kAbs:
        return x > 0 ? 1.0 : (x < 0 ? -1.0 : proxyAlpha());
      case UnaryKind::kNeg: return -1.0;
      case UnaryKind::kExp: return y;
      case UnaryKind::kLog: return 1.0 / x;
      case UnaryKind::kLog2: return 1.0 / (x * M_LN2);
      case UnaryKind::kSqrt: return 0.5 / y;
      case UnaryKind::kFloor:
      case UnaryKind::kCeil:
      case UnaryKind::kRound:
        return proxyAlpha(); // zero a.e.; monotonic: positive proxy
      case UnaryKind::kNot:
        return 0.0; // boolean: no gradient
    }
    NNSMITH_PANIC("bad UnaryKind");
}

} // namespace

std::string
unaryKindName(UnaryKind kind)
{
    switch (kind) {
      case UnaryKind::kRelu: return "Relu";
      case UnaryKind::kLeakyRelu: return "LeakyRelu";
      case UnaryKind::kSigmoid: return "Sigmoid";
      case UnaryKind::kTanh: return "Tanh";
      case UnaryKind::kSin: return "Sin";
      case UnaryKind::kCos: return "Cos";
      case UnaryKind::kAsin: return "Asin";
      case UnaryKind::kAcos: return "Acos";
      case UnaryKind::kAtan: return "Atan";
      case UnaryKind::kAbs: return "Abs";
      case UnaryKind::kNeg: return "Neg";
      case UnaryKind::kExp: return "Exp";
      case UnaryKind::kLog: return "Log";
      case UnaryKind::kLog2: return "Log2";
      case UnaryKind::kSqrt: return "Sqrt";
      case UnaryKind::kFloor: return "Floor";
      case UnaryKind::kCeil: return "Ceil";
      case UnaryKind::kRound: return "Round";
      case UnaryKind::kNot: return "Not";
    }
    NNSMITH_PANIC("bad UnaryKind");
}

// ---- UnaryOp ---------------------------------------------------------------

UnaryOp::UnaryOp(UnaryKind kind, SymbolTable&, Rng&) : kind_(kind) {}

UnaryOp::UnaryOp(UnaryKind kind, const AttrMap& attrs) : kind_(kind)
{
    concretizeFromMap(attrs);
}

std::vector<DTypeCombo>
UnaryOp::dtypeCombos() const
{
    using tensor::DType;
    if (kind_ == UnaryKind::kNot)
        return {{{DType::kBool}, {DType::kBool}}};
    std::vector<DTypeCombo> combos = {{{DType::kF32}, {DType::kF32}},
                                      {{DType::kF64}, {DType::kF64}}};
    if (kind_ == UnaryKind::kAbs || kind_ == UnaryKind::kNeg) {
        combos.push_back({{DType::kI32}, {DType::kI32}});
        combos.push_back({{DType::kI64}, {DType::kI64}});
    }
    return combos;
}

std::vector<std::vector<int>>
UnaryOp::inputRanks() const
{
    return {{}}; // any rank
}

std::vector<Pred>
UnaryOp::requirements(const std::vector<TensorType>&) const
{
    return {};
}

std::vector<TensorType>
UnaryOp::typeTransfer(const std::vector<TensorType>& inputs) const
{
    const DType out = outDTypes().empty() ? inputs[0].dtype() : outDTypes()[0];
    return {TensorType(out, inputs[0].shape())};
}

std::optional<std::vector<TensorType>>
UnaryOp::inferInputTypes(const std::vector<TensorType>& outputs,
                         SymbolTable& symbols) const
{
    const DType in = inDTypes().empty() ? outputs[0].dtype() : inDTypes()[0];
    return {{freshTensorType(symbols, in, outputs[0].rank(), "u")}};
}

std::unique_ptr<OpBase>
UnaryOp::clone() const
{
    return std::make_unique<UnaryOp>(*this);
}

std::vector<Tensor>
UnaryOp::execute(const std::vector<Tensor>& inputs) const
{
    const Tensor& in = inputs[0];
    const UnaryKind kind = kind_;
    // Abs/Neg also run on integer tensors: use native integer
    // arithmetic (wrapping at INT_MIN) so i64 values above 2^53 are
    // not corrupted by a double round-trip.
    switch (kind) {
      case UnaryKind::kAbs:
        return {tensor::applyUnary(in, [](auto x) {
            using T = decltype(x);
            if constexpr (std::is_floating_point_v<T>)
                return std::abs(x);
            else if constexpr (std::is_signed_v<T>)
                return x < 0 ? tensor::wrapSub(T{0}, x) : x;
            else
                return x;
        })};
      case UnaryKind::kNeg:
        return {tensor::applyUnary(in, [](auto x) {
            using T = decltype(x);
            if constexpr (std::is_floating_point_v<T>)
                return static_cast<T>(-x);
            else
                return tensor::wrapSub(T{0}, x);
        })};
      case UnaryKind::kNot:
        return {tensor::applyUnary(in,
                                   [](auto x) { return x != 0 ? 0 : 1; })};
      default:
        // Float math stays in double precision (the historical
        // semantics); only the store narrows to the element type.
        return {tensor::applyUnary(in, [kind](auto x) {
            return static_cast<decltype(x)>(
                applyUnary(kind, static_cast<double>(x)));
        })};
    }
}

std::vector<Tensor>
UnaryOp::backward(const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& outputs,
                  const std::vector<Tensor>& grad_outputs) const
{
    if (!tensor::isFloat(inputs[0].dtype()))
        return {};
    Tensor grad = Tensor::zeros(inputs[0].dtype(), inputs[0].shape());
    const UnaryKind kind = kind_;
    tensor::dispatchDType(grad.dtype(), [&](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_floating_point_v<T>) {
            const T* px = inputs[0].data<T>();
            const T* py = outputs[0].data<T>();
            const T* pg = grad_outputs[0].data<T>();
            T* pd = grad.data<T>();
            const int64_t n = grad.numel();
            for (int64_t i = 0; i < n; ++i)
                pd[i] = static_cast<T>(
                    pg[i] * unaryDerivative(kind, px[i], py[i]));
        }
    });
    return {grad};
}

// ---- SoftmaxOp -------------------------------------------------------------

SoftmaxOp::SoftmaxOp(SymbolTable&, Rng& rng)
{
    const int64_t rank = rng.uniformInt(1, 4);
    addFixedAttr("rank", rank);
    addFixedAttr("axis", rng.uniformInt(0, rank - 1));
}

SoftmaxOp::SoftmaxOp(const AttrMap& attrs)
{
    addFixedAttr("rank", attrs.at("rank"));
    addFixedAttr("axis", attrs.at("axis"));
    concretizeFromMap(attrs);
}

int
SoftmaxOp::rank() const
{
    return static_cast<int>(attrValue("rank"));
}

int
SoftmaxOp::axis() const
{
    return static_cast<int>(attrValue("axis"));
}

std::vector<DTypeCombo>
SoftmaxOp::dtypeCombos() const
{
    using tensor::DType;
    return {{{DType::kF32}, {DType::kF32}}, {{DType::kF64}, {DType::kF64}}};
}

std::vector<std::vector<int>>
SoftmaxOp::inputRanks() const
{
    return {{rank()}};
}

std::vector<Pred>
SoftmaxOp::requirements(const std::vector<TensorType>&) const
{
    return {};
}

std::vector<TensorType>
SoftmaxOp::typeTransfer(const std::vector<TensorType>& inputs) const
{
    return {TensorType(inputs[0].dtype(), inputs[0].shape())};
}

std::optional<std::vector<TensorType>>
SoftmaxOp::inferInputTypes(const std::vector<TensorType>& outputs,
                           SymbolTable& symbols) const
{
    if (outputs[0].rank() != rank())
        return std::nullopt;
    const DType in =
        inDTypes().empty() ? outputs[0].dtype() : inDTypes()[0];
    return {{freshTensorType(symbols, in, rank(), "sm")}};
}

std::unique_ptr<OpBase>
SoftmaxOp::clone() const
{
    return std::make_unique<SoftmaxOp>(*this);
}

std::vector<Tensor>
SoftmaxOp::execute(const std::vector<Tensor>& inputs) const
{
    const Tensor& x = inputs[0];
    const Shape& shape = x.shape();
    const int ax = axis();
    const auto strides = rowMajorStrides(shape);
    const int64_t axis_dim = tensor::axisDim(shape, ax);
    const int64_t axis_stride = strides[static_cast<size_t>(ax)];

    Tensor out = Tensor::zeros(x.dtype(), shape);
    tensor::dispatchDType(x.dtype(), [&](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_floating_point_v<T>) {
            const T* src = x.data<T>();
            T* dst = out.data<T>();
            tensor::forEachSlice(shape, ax, [&](int64_t, int64_t base) {
                double max_v = -HUGE_VAL;
                for (int64_t k = 0; k < axis_dim; ++k)
                    max_v = std::max(
                        max_v,
                        static_cast<double>(src[base + k * axis_stride]));
                double sum = 0.0;
                for (int64_t k = 0; k < axis_dim; ++k)
                    sum += std::exp(src[base + k * axis_stride] - max_v);
                for (int64_t k = 0; k < axis_dim; ++k) {
                    const int64_t idx = base + k * axis_stride;
                    dst[idx] =
                        static_cast<T>(std::exp(src[idx] - max_v) / sum);
                }
            });
        }
    });
    return {out};
}

std::vector<Tensor>
SoftmaxOp::backward(const std::vector<Tensor>& inputs,
                    const std::vector<Tensor>& outputs,
                    const std::vector<Tensor>& grad_outputs) const
{
    const Tensor& y = outputs[0];
    const Tensor& gy = grad_outputs[0];
    const Shape& shape = inputs[0].shape();
    const int ax = axis();
    const auto strides = rowMajorStrides(shape);
    const int64_t axis_dim = tensor::axisDim(shape, ax);
    const int64_t axis_stride = strides[static_cast<size_t>(ax)];

    Tensor gx = Tensor::zeros(inputs[0].dtype(), shape);
    tensor::dispatchDType(gx.dtype(), [&](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_floating_point_v<T>) {
            const T* py = y.data<T>();
            const T* pg = gy.data<T>();
            T* pd = gx.data<T>();
            tensor::forEachSlice(shape, ax, [&](int64_t, int64_t base) {
                double dot = 0.0;
                for (int64_t k = 0; k < axis_dim; ++k) {
                    const int64_t idx = base + k * axis_stride;
                    dot += static_cast<double>(pg[idx]) * py[idx];
                }
                for (int64_t k = 0; k < axis_dim; ++k) {
                    const int64_t idx = base + k * axis_stride;
                    pd[idx] = static_cast<T>(py[idx] * (pg[idx] - dot));
                }
            });
        }
    });
    return {gx};
}

// ---- ClipOp ----------------------------------------------------------------

ClipOp::ClipOp(SymbolTable&, Rng& rng)
{
    const int64_t lo = rng.uniformInt(-8, 0);
    addFixedAttr("lo", lo);
    addFixedAttr("hi", rng.uniformInt(lo + 1, 8));
}

ClipOp::ClipOp(const AttrMap& attrs)
{
    addFixedAttr("lo", attrs.at("lo"));
    addFixedAttr("hi", attrs.at("hi"));
    concretizeFromMap(attrs);
}

std::vector<DTypeCombo>
ClipOp::dtypeCombos() const
{
    using tensor::DType;
    // int32 Clip is deliberately included: the paper found a PyTorch
    // exporter + TensorRT defect on exactly this combination (§5.4).
    return {{{DType::kF32}, {DType::kF32}},
            {{DType::kF64}, {DType::kF64}},
            {{DType::kI32}, {DType::kI32}},
            {{DType::kI64}, {DType::kI64}}};
}

std::vector<std::vector<int>>
ClipOp::inputRanks() const
{
    return {{}};
}

std::vector<Pred>
ClipOp::requirements(const std::vector<TensorType>&) const
{
    return {};
}

std::vector<TensorType>
ClipOp::typeTransfer(const std::vector<TensorType>& inputs) const
{
    return {TensorType(inputs[0].dtype(), inputs[0].shape())};
}

std::optional<std::vector<TensorType>>
ClipOp::inferInputTypes(const std::vector<TensorType>& outputs,
                        SymbolTable& symbols) const
{
    const DType in = inDTypes().empty() ? outputs[0].dtype() : inDTypes()[0];
    return {{freshTensorType(symbols, in, outputs[0].rank(), "cl")}};
}

std::unique_ptr<OpBase>
ClipOp::clone() const
{
    return std::make_unique<ClipOp>(*this);
}

std::vector<Tensor>
ClipOp::execute(const std::vector<Tensor>& inputs) const
{
    const int64_t lo = attrValue("lo");
    const int64_t hi = attrValue("hi");
    // Clip bounds are small integer attributes, exactly representable
    // in every element type — clamp natively per dtype.
    return {tensor::applyUnary(inputs[0], [lo, hi](auto x) {
        using T = decltype(x);
        const T tlo = static_cast<T>(lo);
        const T thi = static_cast<T>(hi);
        return x < tlo ? tlo : (x > thi ? thi : x);
    })};
}

std::vector<Tensor>
ClipOp::backward(const std::vector<Tensor>& inputs,
                 const std::vector<Tensor>& outputs,
                 const std::vector<Tensor>& grad_outputs) const
{
    (void)outputs;
    if (!tensor::isFloat(inputs[0].dtype()))
        return {};
    const double lo = static_cast<double>(attrValue("lo"));
    const double hi = static_cast<double>(attrValue("hi"));
    Tensor grad = Tensor::zeros(inputs[0].dtype(), inputs[0].shape());
    tensor::dispatchDType(grad.dtype(), [&](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_floating_point_v<T>) {
            const T* px = inputs[0].data<T>();
            const T* pg = grad_outputs[0].data<T>();
            T* pd = grad.data<T>();
            const int64_t n = grad.numel();
            for (int64_t i = 0; i < n; ++i) {
                const double x = px[i];
                const double d =
                    (x >= lo && x <= hi) ? 1.0 : proxyAlpha();
                pd[i] = static_cast<T>(pg[i] * d);
            }
        }
    });
    return {grad};
}

// ---- registration ----------------------------------------------------------

void
registerElementwiseOps(OpRegistry& registry)
{
    auto register_unary = [&registry](UnaryKind kind, bool lemon) {
        OpMeta meta;
        meta.name = unaryKindName(kind);
        meta.category = OpCategory::kUnary;
        meta.lemonCompatible = lemon;
        meta.graphFuzzerCompatible = true;
        meta.make = [kind](SymbolTable& symbols, Rng& rng) {
            return std::make_unique<UnaryOp>(kind, symbols, rng);
        };
        meta.reconstruct = [kind](const AttrMap& attrs) {
            return std::make_unique<UnaryOp>(kind, attrs);
        };
        registry.registerOp(std::move(meta));
    };
    // LEMON mutates shape-preserving float activations only (§6.1).
    register_unary(UnaryKind::kRelu, true);
    register_unary(UnaryKind::kLeakyRelu, true);
    register_unary(UnaryKind::kSigmoid, true);
    register_unary(UnaryKind::kTanh, true);
    register_unary(UnaryKind::kSin, true);
    register_unary(UnaryKind::kCos, true);
    register_unary(UnaryKind::kAsin, false);
    register_unary(UnaryKind::kAcos, false);
    register_unary(UnaryKind::kAtan, true);
    register_unary(UnaryKind::kAbs, true);
    register_unary(UnaryKind::kNeg, true);
    register_unary(UnaryKind::kExp, false);
    register_unary(UnaryKind::kLog, false);
    register_unary(UnaryKind::kLog2, false);
    register_unary(UnaryKind::kSqrt, false);
    register_unary(UnaryKind::kFloor, true);
    register_unary(UnaryKind::kCeil, true);
    register_unary(UnaryKind::kRound, true);
    register_unary(UnaryKind::kNot, false);

    registerOpClass<SoftmaxOp>(registry, "Softmax", OpCategory::kUnary,
                               /*lemon=*/true, /*graph_fuzzer=*/true);
    registerOpClass<ClipOp>(registry, "Clip", OpCategory::kUnary,
                            /*lemon=*/true, /*graph_fuzzer=*/true);
}

} // namespace nnsmith::ops
