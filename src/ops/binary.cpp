#include "ops/binary.h"

#include <cmath>

#include "support/logging.h"
#include "tensor/kernels.h"

namespace nnsmith::ops {

using tensor::DType;
using tensor::Shape;

std::string
binaryKindName(BinaryKind kind)
{
    switch (kind) {
      case BinaryKind::kAdd: return "Add";
      case BinaryKind::kSub: return "Sub";
      case BinaryKind::kMul: return "Mul";
      case BinaryKind::kDiv: return "Div";
      case BinaryKind::kMod: return "Mod";
      case BinaryKind::kPow: return "Pow";
      case BinaryKind::kMax: return "Max";
      case BinaryKind::kMin: return "Min";
      case BinaryKind::kEqual: return "Equal";
      case BinaryKind::kGreater: return "Greater";
      case BinaryKind::kLess: return "Less";
      case BinaryKind::kAnd: return "And";
      case BinaryKind::kOr: return "Or";
      case BinaryKind::kXor: return "Xor";
    }
    NNSMITH_PANIC("bad BinaryKind");
}

bool
isComparison(BinaryKind kind)
{
    return kind == BinaryKind::kEqual || kind == BinaryKind::kGreater ||
           kind == BinaryKind::kLess;
}

bool
isLogical(BinaryKind kind)
{
    return kind == BinaryKind::kAnd || kind == BinaryKind::kOr ||
           kind == BinaryKind::kXor;
}

double
applyBinaryKind(BinaryKind kind, double a, double b)
{
    switch (kind) {
      case BinaryKind::kAdd: return a + b;
      case BinaryKind::kSub: return a - b;
      case BinaryKind::kMul: return a * b;
      case BinaryKind::kDiv: return a / b;
      case BinaryKind::kMod: return std::fmod(a, b);
      case BinaryKind::kPow: return std::pow(a, b);
      case BinaryKind::kMax: return std::max(a, b);
      case BinaryKind::kMin: return std::min(a, b);
      case BinaryKind::kEqual: return a == b ? 1.0 : 0.0;
      case BinaryKind::kGreater: return a > b ? 1.0 : 0.0;
      case BinaryKind::kLess: return a < b ? 1.0 : 0.0;
      case BinaryKind::kAnd: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
      case BinaryKind::kOr: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
      case BinaryKind::kXor: return ((a != 0.0) != (b != 0.0)) ? 1.0 : 0.0;
    }
    NNSMITH_PANIC("bad BinaryKind");
}

BinaryOp::BinaryOp(BinaryKind kind, SymbolTable&, Rng& rng) : kind_(kind)
{
    const auto mask = sampleBroadcastMask(rng, kMaxRank);
    for (int i = 0; i < kMaxRank; ++i)
        addFixedAttr("bm" + std::to_string(i),
                     mask[static_cast<size_t>(i)]);
}

BinaryOp::BinaryOp(BinaryKind kind, const AttrMap& attrs) : kind_(kind)
{
    for (int i = 0; i < kMaxRank; ++i) {
        const std::string key = "bm" + std::to_string(i);
        addFixedAttr(key, attrs.at(key));
    }
    concretizeFromMap(attrs);
}

std::vector<int64_t>
BinaryOp::mask() const
{
    std::vector<int64_t> m(kMaxRank);
    for (int i = 0; i < kMaxRank; ++i)
        m[static_cast<size_t>(i)] = attrValue("bm" + std::to_string(i));
    return m;
}

std::vector<DTypeCombo>
BinaryOp::dtypeCombos() const
{
    if (isLogical(kind_))
        return {{{DType::kBool, DType::kBool}, {DType::kBool}}};
    std::vector<DTypeCombo> combos;
    // Comparisons accept every dtype (bool included, as in ONNX
    // Equal); arithmetic accepts all numeric dtypes — integer Div/Mod
    // have the defined semantics documented in tensor/kernels.h. Only
    // Pow stays float (integer exponentiation has no portable backend
    // semantics).
    std::vector<DType> ins = isComparison(kind_) ? tensor::allDTypes()
                             : kind_ == BinaryKind::kPow
                                 ? tensor::floatDTypes()
                                 : tensor::numericDTypes();
    for (DType t : ins) {
        const DType out = isComparison(kind_) ? DType::kBool : t;
        combos.push_back({{t, t}, {out}});
    }
    return combos;
}

std::vector<std::vector<int>>
BinaryOp::inputRanks() const
{
    return {{}, {}}; // any ranks; broadcasting aligns them
}

std::vector<Pred>
BinaryOp::requirements(const std::vector<TensorType>& inputs) const
{
    return broadcastConstraints(inputs[0], inputs[1], mask());
}

std::vector<TensorType>
BinaryOp::typeTransfer(const std::vector<TensorType>& inputs) const
{
    DType out;
    if (!outDTypes().empty())
        out = outDTypes()[0];
    else
        out = isComparison(kind_) ? DType::kBool : inputs[0].dtype();
    return {TensorType(out, broadcastShape(inputs[0], inputs[1], mask()))};
}

std::optional<std::vector<TensorType>>
BinaryOp::inferInputTypes(const std::vector<TensorType>& outputs,
                          SymbolTable& symbols) const
{
    // Both inputs take the output's rank; the mask + shapesEqual
    // constraints then pin each dimension to the output dim or to 1.
    // The generator pins the input dtype from dtypeCombos() via
    // setDTypes() before calling this, so comparisons insert over
    // every dtype; the bare-call fallback mirrors the output dtype,
    // which is a legal input for every kind (bool compares included).
    const DType in =
        !inDTypes().empty() ? inDTypes()[0] : outputs[0].dtype();
    return {{freshTensorType(symbols, in, outputs[0].rank(), "ba"),
             freshTensorType(symbols, in, outputs[0].rank(), "bb")}};
}

std::unique_ptr<OpBase>
BinaryOp::clone() const
{
    return std::make_unique<BinaryOp>(*this);
}

std::vector<Tensor>
BinaryOp::execute(const std::vector<Tensor>& inputs) const
{
    const Tensor& a = inputs[0];
    const Tensor& b = inputs[1];
    // Dispatch the dtype once per tensor (tensor/kernels.h), not twice
    // per element. Integer semantics: native two's-complement wrap for
    // Add/Sub/Mul, C++ truncating division for Div/Mod, and
    // div/mod-by-zero yields 0 with the output tensor poisoned so the
    // interpreter records it in ExecResult.firstInvalidNode.
    bool poison = false;
    Tensor out;
    switch (kind_) {
      case BinaryKind::kAdd:
        out = tensor::applyBinary(a, b, [](auto x, auto y) {
            if constexpr (std::is_integral_v<decltype(x)>)
                return tensor::wrapAdd(x, y);
            else
                return x + y;
        });
        break;
      case BinaryKind::kSub:
        out = tensor::applyBinary(a, b, [](auto x, auto y) {
            if constexpr (std::is_integral_v<decltype(x)>)
                return tensor::wrapSub(x, y);
            else
                return x - y;
        });
        break;
      case BinaryKind::kMul:
        out = tensor::applyBinary(a, b, [](auto x, auto y) {
            if constexpr (std::is_integral_v<decltype(x)>)
                return tensor::wrapMul(x, y);
            else
                return x * y;
        });
        break;
      case BinaryKind::kDiv:
        out = tensor::applyBinary(a, b, [&poison](auto x, auto y) {
            if constexpr (std::is_integral_v<decltype(x)>)
                return tensor::wrapDiv(x, y, poison);
            else
                return x / y;
        });
        break;
      case BinaryKind::kMod:
        out = tensor::applyBinary(a, b, [&poison](auto x, auto y) {
            using T = decltype(x);
            if constexpr (std::is_integral_v<T>)
                return tensor::wrapMod(x, y, poison);
            else
                return static_cast<T>(std::fmod(static_cast<double>(x),
                                                static_cast<double>(y)));
        });
        break;
      case BinaryKind::kPow:
        out = tensor::applyBinary(a, b, [](auto x, auto y) {
            using T = decltype(x);
            const double r = std::pow(static_cast<double>(x),
                                      static_cast<double>(y));
            if constexpr (std::is_integral_v<T>)
                return tensor::saturateCast<T>(std::trunc(r));
            else
                return static_cast<T>(r);
        });
        break;
      case BinaryKind::kMax:
        out = tensor::applyBinary(
            a, b, [](auto x, auto y) { return x < y ? y : x; });
        break;
      case BinaryKind::kMin:
        out = tensor::applyBinary(
            a, b, [](auto x, auto y) { return y < x ? y : x; });
        break;
      case BinaryKind::kEqual:
        out = tensor::applyCompare(a, b,
                                   [](auto x, auto y) { return x == y; });
        break;
      case BinaryKind::kGreater:
        out = tensor::applyCompare(a, b,
                                   [](auto x, auto y) { return x > y; });
        break;
      case BinaryKind::kLess:
        out = tensor::applyCompare(a, b,
                                   [](auto x, auto y) { return x < y; });
        break;
      case BinaryKind::kAnd:
        out = tensor::applyBinary(a, b, [](auto x, auto y) {
            return x != 0 && y != 0 ? 1 : 0;
        });
        break;
      case BinaryKind::kOr:
        out = tensor::applyBinary(a, b, [](auto x, auto y) {
            return x != 0 || y != 0 ? 1 : 0;
        });
        break;
      case BinaryKind::kXor:
        out = tensor::applyBinary(a, b, [](auto x, auto y) {
            return (x != 0) != (y != 0) ? 1 : 0;
        });
        break;
    }
    if (poison)
        out.markPoisoned();
    return {std::move(out)};
}

std::vector<Tensor>
BinaryOp::backward(const std::vector<Tensor>& inputs,
                   const std::vector<Tensor>& outputs,
                   const std::vector<Tensor>& grad_outputs) const
{
    (void)outputs;
    if (isComparison(kind_) || isLogical(kind_) ||
        !tensor::isFloat(inputs[0].dtype()))
        return {};
    const Tensor& a = inputs[0];
    const Tensor& b = inputs[1];
    const Tensor& gy = grad_outputs[0];
    const Shape& out_shape = gy.shape();
    Tensor ga_full = Tensor::zeros(a.dtype(), out_shape);
    Tensor gb_full = Tensor::zeros(b.dtype(), out_shape);
    const BroadcastIndexer ia(a.shape(), out_shape);
    const BroadcastIndexer ib(b.shape(), out_shape);
    const BinaryKind kind = kind_;
    tensor::dispatchDType(a.dtype(), [&](auto tag) {
        using T = decltype(tag);
        if constexpr (std::is_floating_point_v<T>) {
            const T* pa = a.data<T>();
            const T* pb = b.data<T>();
            const T* pg = gy.data<T>();
            T* pga = ga_full.data<T>();
            T* pgb = gb_full.data<T>();
            const int64_t n = gy.numel();
            for (int64_t i = 0; i < n; ++i) {
                const double x = pa[ia.map(i)];
                const double y = pb[ib.map(i)];
                const double g = pg[i];
                double da = 0.0;
                double db = 0.0;
                switch (kind) {
                  case BinaryKind::kAdd: da = 1; db = 1; break;
                  case BinaryKind::kSub: da = 1; db = -1; break;
                  case BinaryKind::kMul: da = y; db = x; break;
                  case BinaryKind::kDiv:
                    da = 1.0 / y;
                    db = -x / (y * y);
                    break;
                  case BinaryKind::kMod:
                    // d(fmod(x,y))/dx = 1 a.e.; treat the quotient as
                    // locally constant for the y side.
                    da = 1.0;
                    db = -std::trunc(x / y);
                    break;
                  case BinaryKind::kPow:
                    da = y * std::pow(x, y - 1.0);
                    db = std::pow(x, y) * std::log(x);
                    break;
                  case BinaryKind::kMax:
                    da = x > y ? 1.0 : (x < y ? proxyAlpha() : 0.5);
                    db = y > x ? 1.0 : (y < x ? proxyAlpha() : 0.5);
                    break;
                  case BinaryKind::kMin:
                    da = x < y ? 1.0 : (x > y ? proxyAlpha() : 0.5);
                    db = y < x ? 1.0 : (y > x ? proxyAlpha() : 0.5);
                    break;
                  default:
                    break;
                }
                pga[i] = static_cast<T>(g * da);
                pgb[i] = static_cast<T>(g * db);
            }
        }
    });
    return {reduceGradToShape(ga_full, a.shape()),
            reduceGradToShape(gb_full, b.shape())};
}

void
registerBinaryOps(OpRegistry& registry)
{
    auto register_binary = [&registry](BinaryKind kind) {
        OpMeta meta;
        meta.name = binaryKindName(kind);
        meta.category = isComparison(kind)
                            ? OpCategory::kCompare
                            : (isLogical(kind) ? OpCategory::kLogical
                                               : OpCategory::kBinary);
        meta.lemonCompatible = false; // LEMON cannot connect non-unary ops
        meta.graphFuzzerCompatible = true;
        meta.make = [kind](SymbolTable& symbols, Rng& rng) {
            return std::make_unique<BinaryOp>(kind, symbols, rng);
        };
        meta.reconstruct = [kind](const AttrMap& attrs) {
            return std::make_unique<BinaryOp>(kind, attrs);
        };
        registry.registerOp(std::move(meta));
    };
    register_binary(BinaryKind::kAdd);
    register_binary(BinaryKind::kSub);
    register_binary(BinaryKind::kMul);
    register_binary(BinaryKind::kDiv);
    register_binary(BinaryKind::kMod);
    register_binary(BinaryKind::kPow);
    register_binary(BinaryKind::kMax);
    register_binary(BinaryKind::kMin);
    register_binary(BinaryKind::kEqual);
    register_binary(BinaryKind::kGreater);
    register_binary(BinaryKind::kLess);
    register_binary(BinaryKind::kAnd);
    register_binary(BinaryKind::kOr);
    register_binary(BinaryKind::kXor);
}

} // namespace nnsmith::ops
