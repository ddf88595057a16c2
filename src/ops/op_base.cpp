#include "ops/op_base.h"

#include "support/logging.h"

namespace nnsmith::ops {

using symbolic::Expr;

std::optional<std::vector<TensorType>>
OpBase::inferInputTypes(const std::vector<TensorType>&, SymbolTable&) const
{
    return std::nullopt; // backward insertion unsupported by default
}

int64_t
OpBase::attrValue(const std::string& name) const
{
    for (const auto& a : attrs_) {
        if (a.name == name) {
            NNSMITH_ASSERT(concretized_ || a.expr == nullptr ||
                               a.expr->isConst(),
                           "attr ", name, " of ", this->name(),
                           " read before concretize()");
            return a.expr && a.expr->isConst() && !concretized_
                       ? a.expr->value()
                       : a.value;
        }
    }
    NNSMITH_PANIC("no attr named ", name, " in ", this->name());
}

const ExprRef&
OpBase::attrExpr(const std::string& name) const
{
    for (const auto& a : attrs_) {
        if (a.name == name)
            return a.expr;
    }
    NNSMITH_PANIC("no attr named ", name, " in ", this->name());
}

void
OpBase::concretize(const Assignment& model)
{
    for (auto& a : attrs_) {
        a.value = symbolic::evaluate(a.expr, model);
        a.expr = Expr::constant(a.value);
    }
    concretized_ = true;
}

std::vector<Tensor>
OpBase::backward(const std::vector<Tensor>&, const std::vector<Tensor>&,
                 const std::vector<Tensor>&) const
{
    return {}; // no gradient by default
}

namespace {
// Per thread: every autodiff::search sets and reads it on its own
// thread, so concurrent campaign workers cannot see each other's.
thread_local bool g_proxy_derivatives = true;
} // namespace

double
proxyAlpha()
{
    return g_proxy_derivatives ? 0.01 : 0.0;
}

void
setProxyDerivativesEnabled(bool enabled)
{
    g_proxy_derivatives = enabled;
}

bool
proxyDerivativesEnabled()
{
    return g_proxy_derivatives;
}

void
OpBase::concretizeFromMap(const AttrMap& attrs)
{
    for (auto& a : attrs_) {
        auto it = attrs.find(a.name);
        NNSMITH_ASSERT(it != attrs.end(), "attr map missing ", a.name,
                       " for ", name());
        a.value = it->second;
        a.expr = Expr::constant(a.value);
    }
    concretized_ = true;
}

AttrMap
OpBase::attrMap() const
{
    NNSMITH_ASSERT(isConcretized(), "attrMap() before concretize()");
    AttrMap m;
    for (const auto& a : attrs_)
        m[a.name] = a.value;
    return m;
}

void
OpBase::setDTypes(const DTypeCombo& combo)
{
    NNSMITH_ASSERT(static_cast<int>(combo.in.size()) == numInputs(),
                   "dtype combo arity mismatch for ", name());
    NNSMITH_ASSERT(static_cast<int>(combo.out.size()) == numOutputs(),
                   "dtype combo arity mismatch for ", name());
    inDTypes_ = combo.in;
    outDTypes_ = combo.out;
}

std::string
OpBase::describe() const
{
    std::string s = name() + "{";
    for (size_t i = 0; i < attrs_.size(); ++i) {
        if (i)
            s += ",";
        s += attrs_[i].name + "=";
        if (isConcretized())
            s += std::to_string(attrs_[i].value);
        else
            s += symbolic::toString(attrs_[i].expr);
    }
    return s + "}";
}

ExprRef
OpBase::addAttr(SymbolTable& symbols, const std::string& name,
                AttrBinning binning)
{
    ExprRef e = symbols.fresh(name);
    attrs_.push_back(Attr{name, e, 0, binning});
    return e;
}

void
OpBase::addFixedAttr(const std::string& name, int64_t value)
{
    attrs_.push_back(
        Attr{name, Expr::constant(value), value, AttrBinning::kNone});
}

std::vector<Pred>
allDimsPositive(const TensorType& t)
{
    std::vector<Pred> preds;
    preds.reserve(static_cast<size_t>(t.rank()));
    for (int i = 0; i < t.rank(); ++i)
        preds.push_back(symbolic::ge(t.dim(i), 1));
    return preds;
}

std::vector<Pred>
shapesEqual(const TensorType& a, const TensorType& b)
{
    NNSMITH_ASSERT(a.rank() == b.rank(), "shapesEqual rank mismatch");
    std::vector<Pred> preds;
    preds.reserve(static_cast<size_t>(a.rank()));
    for (int i = 0; i < a.rank(); ++i)
        preds.push_back(symbolic::eq(a.dim(i), b.dim(i)));
    return preds;
}

TensorType
freshTensorType(SymbolTable& symbols, DType dtype, int rank,
                const std::string& hint)
{
    std::vector<ExprRef> dims;
    dims.reserve(static_cast<size_t>(rank));
    for (int i = 0; i < rank; ++i)
        dims.push_back(symbols.fresh(hint + "_d" + std::to_string(i)));
    return TensorType(dtype, std::move(dims));
}

} // namespace nnsmith::ops
