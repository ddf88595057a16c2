/**
 * @file
 * Typed kernel layer: dispatch-once element loops over dense tensors.
 *
 * Every operator's reference kernel used to funnel each element through
 * `Tensor::scalarAt`/`setScalar`, paying a `std::variant` visit *twice
 * per element* and silently round-tripping integers through double
 * (which corrupts i64 values above 2^53 and turns integer
 * division-by-zero into undefined float->int casts). The helpers here
 * dispatch on the dtype *once per tensor* via `dispatchDType` and then
 * run a tight loop over typed pointers.
 *
 * Numeric semantics (see DESIGN.md "Numeric semantics"):
 *  - i32/i64 arithmetic is native two's-complement; Add/Sub/Mul wrap
 *    (use wrapAdd/wrapSub/wrapMul — signed overflow must not reach the
 *    hardware instruction, UBSan enforces this);
 *  - integer division truncates toward zero (C++ semantics); integer
 *    div/mod-by-zero yields 0 and poisons the output tensor, which the
 *    interpreter records exactly like NaN-poisoning via
 *    `ExecResult.firstInvalidNode`; INT_MIN / -1 wraps to INT_MIN;
 *  - casting a non-finite or out-of-range double to an integer type
 *    saturates (NaN -> 0), see `saturateCast`.
 *
 * Functors passed to the apply* templates are generic lambdas invoked
 * with the *native* element type (bool tensors use uint8_t storage);
 * they are instantiated for every dtype the kernel dispatches over, so
 * use `if constexpr` for type-dependent branches.
 */
#ifndef NNSMITH_TENSOR_KERNELS_H
#define NNSMITH_TENSOR_KERNELS_H

#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "tensor/tensor.h"

/**
 * Portable "please vectorize" hint for the contiguous sweeps below. No
 * intrinsics: clang's loop pragma only *requests* vectorization (the
 * compiler still proves legality), and for GCC we restrict ourselves to
 * an unroll hint — `GCC ivdep` would *assert* absence of loop-carried
 * dependences, which is unsound for functors that write a captured
 * poison flag.
 */
#if defined(__clang__)
#define NNSMITH_SIMD _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define NNSMITH_SIMD _Pragma("GCC unroll 4")
#else
#define NNSMITH_SIMD
#endif

/** Non-aliasing pointer qualifier for the sweep kernels. */
#if defined(__clang__) || defined(__GNUC__)
#define NNSMITH_RESTRICT __restrict__
#else
#define NNSMITH_RESTRICT
#endif

namespace nnsmith::tensor {

/** Concrete numpy broadcast of two shapes (trailing-aligned). */
Shape broadcastShapes(const Shape& a, const Shape& b);

/**
 * Maps flat indices of a broadcast output to flat indices of one input
 * (stride-0 on broadcast dimensions). `isIdentity()` is true when the
 * input already has the output shape, enabling the no-remap fast path.
 */
class BroadcastIndexer {
  public:
    BroadcastIndexer(const Shape& in, const Shape& out);

    /** Input flat index corresponding to @p out_flat. */
    int64_t map(int64_t out_flat) const;

    /** True when map() is the identity (same shape, no broadcasting). */
    bool isIdentity() const { return identity_; }

    /** Per-output-dim input strides (0 on broadcast dims). */
    const std::vector<int64_t>& strides() const { return strides_; }

  private:
    std::vector<int64_t> outDims_;
    std::vector<int64_t> strides_; ///< input strides, 0 on broadcast dims
    bool identity_ = false;
};

/**
 * Precomputed run decomposition of a broadcast loop: the output is
 * walked as `numRuns()` contiguous runs of `innerLen()` elements (the
 * innermost output dimension). Per run, each input's base offset is
 * produced by an incremental odometer over the outer dims — replacing
 * `BroadcastIndexer::map`'s per-element div/mod chain with one add per
 * dimension per *run*. Within a run an input advances by
 * `innerStep(j)`, which is always 0 (broadcast innermost dim) or 1
 * (dense row-major innermost stride), so every run is a contiguous or
 * constant sweep.
 */
class BroadcastRunner {
  public:
    BroadcastRunner(const Shape& out,
                    const std::vector<const BroadcastIndexer*>& inputs);

    int64_t innerLen() const { return innerLen_; }
    int64_t numRuns() const { return numRuns_; }
    int64_t innerStep(size_t input) const { return innerSteps_[input]; }

    /**
     * Invoke `fn(out_base, bases)` once per run, where `bases[j]` is
     * input j's flat base offset for the run. For all k in
     * [0, innerLen()): input j's element for output `out_base + k`
     * lives at `bases[j] + k * innerStep(j)` — bit-identical to
     * `indexer.map(out_base + k)`.
     */
    template <typename Fn>
    void
    forEachRun(Fn&& fn) const
    {
        const size_t n_in = innerSteps_.size();
        const int n_outer = static_cast<int>(outerDims_.size());
        std::vector<int64_t> coord(static_cast<size_t>(n_outer), 0);
        std::vector<int64_t> bases(n_in, 0);
        int64_t out_base = 0;
        for (int64_t r = 0; r < numRuns_; ++r) {
            fn(out_base, bases.data());
            out_base += innerLen_;
            for (int i = n_outer - 1; i >= 0; --i) {
                auto& c = coord[static_cast<size_t>(i)];
                ++c;
                for (size_t j = 0; j < n_in; ++j)
                    bases[j] += strides_[j][static_cast<size_t>(i)];
                if (c < outerDims_[static_cast<size_t>(i)])
                    break;
                for (size_t j = 0; j < n_in; ++j)
                    bases[j] -= strides_[j][static_cast<size_t>(i)] * c;
                c = 0;
            }
        }
    }

  private:
    int64_t innerLen_ = 1;
    int64_t numRuns_ = 0;
    std::vector<int64_t> outerDims_;
    std::vector<int64_t> innerSteps_;          ///< [input], always 0 or 1
    std::vector<std::vector<int64_t>> strides_; ///< [input][outer dim]
};

namespace detail {

/** Native storage type for a dispatch tag (bool tensors store uint8_t). */
template <typename Tag>
using NativeT = std::conditional_t<std::is_same_v<Tag, bool>, uint8_t, Tag>;

// ---- contiguous sweeps (the SIMD fast paths) ------------------------------
//
// These take restrict-qualified raw pointers so the compiler may assume
// src and dst do not alias (guaranteed: apply* always writes a freshly
// allocated output).

template <typename T, typename Fn>
void
unarySweep(const T* NNSMITH_RESTRICT src, T* NNSMITH_RESTRICT dst,
           int64_t n, Fn&& fn)
{
    NNSMITH_SIMD
    for (int64_t i = 0; i < n; ++i)
        dst[i] = fn(src[i]);
}

template <typename T, typename D, typename Fn>
void
binarySweepIdentity(const T* NNSMITH_RESTRICT pa,
                    const T* NNSMITH_RESTRICT pb, D* NNSMITH_RESTRICT dst,
                    int64_t n, Fn&& fn)
{
    NNSMITH_SIMD
    for (int64_t i = 0; i < n; ++i)
        dst[i] = fn(pa[i], pb[i]);
}

/**
 * Broadcast combine decomposed into contiguous runs. Each run picks one
 * of four shapes depending on which operands advance: both (dense
 * sweep), one side constant (hoisted scalar), or both constant (one
 * functor evaluation replicated — valid because the sequential loop
 * would make `innerLen` calls with identical arguments, and the only
 * functor side effect, the poison flag, is idempotent).
 */
template <typename T, typename D, typename Fn>
void
binarySweepBroadcast(const BroadcastRunner& runner,
                     const T* NNSMITH_RESTRICT pa,
                     const T* NNSMITH_RESTRICT pb, D* NNSMITH_RESTRICT dst,
                     Fn&& fn)
{
    const int64_t len = runner.innerLen(); // > 0 whenever a run fires
    const int64_t sa = runner.innerStep(0);
    const int64_t sb = runner.innerStep(1);
    runner.forEachRun([&](int64_t out_base, const int64_t* bases) {
        const T* NNSMITH_RESTRICT ra = pa + bases[0];
        const T* NNSMITH_RESTRICT rb = pb + bases[1];
        D* NNSMITH_RESTRICT rd = dst + out_base;
        if (sa == 1 && sb == 1) {
            NNSMITH_SIMD
            for (int64_t k = 0; k < len; ++k)
                rd[k] = fn(ra[k], rb[k]);
        } else if (sa == 1) {
            const T y = rb[0];
            NNSMITH_SIMD
            for (int64_t k = 0; k < len; ++k)
                rd[k] = fn(ra[k], y);
        } else if (sb == 1) {
            const T x = ra[0];
            NNSMITH_SIMD
            for (int64_t k = 0; k < len; ++k)
                rd[k] = fn(x, rb[k]);
        } else {
            const D v = fn(ra[0], rb[0]);
            for (int64_t k = 0; k < len; ++k)
                rd[k] = v;
        }
    });
}

/**
 * Axis reduction over a dense row-major layout, decomposed as
 * [outer, axis_dim, inner]. inner == 1 reduces each slice contiguously;
 * otherwise `inner` accumulators advance together so the k-loop streams
 * whole rows (same k-ascending combine order as one slice at a time —
 * values are bit-identical, only the interleaving changes). An empty
 * axis (axis_dim == 0) writes `finalize(init, 0)` — the reduction
 * identity — to every output element.
 */
template <typename T, typename InitFn, typename CombineFn, typename FinalFn>
void
reduceSweep(const T* NNSMITH_RESTRICT src, T* NNSMITH_RESTRICT dst,
            int64_t outer, int64_t axis_dim, int64_t inner, InitFn&& init,
            CombineFn&& combine, FinalFn&& finalize)
{
    using Acc = decltype(init(T{}));
    if (inner == 1) {
        for (int64_t o = 0; o < outer; ++o) {
            const T* NNSMITH_RESTRICT row = src + o * axis_dim;
            Acc acc = init(T{});
            for (int64_t k = 0; k < axis_dim; ++k)
                acc = combine(acc, row[k]);
            dst[o] = finalize(acc, axis_dim);
        }
        return;
    }
    std::vector<Acc> accs(static_cast<size_t>(inner));
    for (int64_t o = 0; o < outer; ++o) {
        for (int64_t j = 0; j < inner; ++j)
            accs[static_cast<size_t>(j)] = init(T{});
        const T* slab = src + o * axis_dim * inner;
        for (int64_t k = 0; k < axis_dim; ++k) {
            const T* NNSMITH_RESTRICT row = slab + k * inner;
            Acc* NNSMITH_RESTRICT acc = accs.data();
            NNSMITH_SIMD
            for (int64_t j = 0; j < inner; ++j)
                acc[j] = combine(acc[j], row[j]);
        }
        T* NNSMITH_RESTRICT out_row = dst + o * inner;
        for (int64_t j = 0; j < inner; ++j)
            out_row[j] = finalize(accs[static_cast<size_t>(j)], axis_dim);
    }
}

} // namespace detail

// ---- defined scalar conversions -------------------------------------------

/**
 * Double -> integer conversion with defined out-of-range behavior:
 * NaN maps to 0, anything at or beyond the representable range
 * saturates to the type's min/max. In-range values truncate toward
 * zero as usual.
 */
template <typename To>
To
saturateCast(double v)
{
    static_assert(std::is_integral_v<To>);
    if (std::isnan(v))
        return To{0};
    // min() is a power of two, so both bounds are exact doubles; max()
    // is not (for i64), hence the >= comparison against -min.
    constexpr double kLo = static_cast<double>(std::numeric_limits<To>::min());
    constexpr double kHi = -kLo;
    if (v >= kHi)
        return std::numeric_limits<To>::max();
    if (v < kLo)
        return std::numeric_limits<To>::min();
    return static_cast<To>(v);
}

/** Wrapping signed arithmetic (two's complement, no UB on overflow). */
template <typename T>
T
wrapAdd(T a, T b)
{
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
}

template <typename T>
T
wrapSub(T a, T b)
{
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) - static_cast<U>(b));
}

template <typename T>
T
wrapMul(T a, T b)
{
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
}

/**
 * Truncating integer division with defined edge cases: b == 0 yields 0
 * and sets @p poison; the INT_MIN / -1 overflow wraps to INT_MIN.
 */
template <typename T>
T
wrapDiv(T a, T b, bool& poison)
{
    static_assert(std::is_integral_v<T>);
    if (b == 0) {
        poison = true;
        return T{0};
    }
    if constexpr (std::is_signed_v<T>) {
        if (a == std::numeric_limits<T>::min() && b == static_cast<T>(-1))
            return a;
    }
    return static_cast<T>(a / b);
}

/** Integer remainder matching wrapDiv (b == 0 yields 0 and poisons). */
template <typename T>
T
wrapMod(T a, T b, bool& poison)
{
    static_assert(std::is_integral_v<T>);
    if (b == 0) {
        poison = true;
        return T{0};
    }
    if constexpr (std::is_signed_v<T>) {
        if (a == std::numeric_limits<T>::min() && b == static_cast<T>(-1))
            return T{0};
    }
    return static_cast<T>(a % b);
}

// ---- dispatch-once element loops ------------------------------------------

/**
 * Elementwise map with out dtype == in dtype:
 * `out[i] = fn(in[i])`, fn invoked with the native element type.
 */
template <typename Fn>
Tensor
applyUnary(const Tensor& in, Fn&& fn)
{
    return dispatchDType(in.dtype(), [&](auto tag) {
        using Tag = decltype(tag);
        Tensor out = Tensor::uninitialized(in.dtype(), in.shape());
        detail::unarySweep(in.data<Tag>(), out.data<Tag>(), in.numel(), fn);
        return out;
    });
}

/**
 * Broadcasting elementwise combine with out dtype == lhs dtype:
 * `out[i] = fn(a[ia(i)], b[ib(i)])`. Inputs must share a dtype.
 */
template <typename Fn>
Tensor
applyBinary(const Tensor& a, const Tensor& b, Fn&& fn)
{
    NNSMITH_ASSERT(a.dtype() == b.dtype(), "applyBinary dtype mismatch");
    const Shape out_shape = broadcastShapes(a.shape(), b.shape());
    const BroadcastIndexer ia(a.shape(), out_shape);
    const BroadcastIndexer ib(b.shape(), out_shape);
    const bool identity = ia.isIdentity() && ib.isIdentity();
    std::optional<BroadcastRunner> runner;
    if (!identity)
        runner.emplace(out_shape,
                       std::vector<const BroadcastIndexer*>{&ia, &ib});
    return dispatchDType(a.dtype(), [&](auto tag) {
        using Tag = decltype(tag);
        Tensor out = Tensor::uninitialized(a.dtype(), out_shape);
        const auto* pa = a.data<Tag>();
        const auto* pb = b.data<Tag>();
        auto* dst = out.data<Tag>();
        if (identity)
            detail::binarySweepIdentity(pa, pb, dst, out.numel(), fn);
        else
            detail::binarySweepBroadcast(*runner, pa, pb, dst, fn);
        return out;
    });
}

/**
 * Broadcasting comparison with bool output:
 * `out[i] = fn(a[ia(i)], b[ib(i)]) ? 1 : 0`. Inputs share a dtype.
 */
template <typename Fn>
Tensor
applyCompare(const Tensor& a, const Tensor& b, Fn&& fn)
{
    NNSMITH_ASSERT(a.dtype() == b.dtype(), "applyCompare dtype mismatch");
    const Shape out_shape = broadcastShapes(a.shape(), b.shape());
    const BroadcastIndexer ia(a.shape(), out_shape);
    const BroadcastIndexer ib(b.shape(), out_shape);
    const bool identity = ia.isIdentity() && ib.isIdentity();
    std::optional<BroadcastRunner> runner;
    if (!identity)
        runner.emplace(out_shape,
                       std::vector<const BroadcastIndexer*>{&ia, &ib});
    return dispatchDType(a.dtype(), [&](auto tag) {
        using Tag = decltype(tag);
        Tensor out = Tensor::uninitialized(DType::kBool, out_shape);
        const auto* pa = a.data<Tag>();
        const auto* pb = b.data<Tag>();
        auto* dst = out.data<bool>();
        const auto cfn = [&fn](auto x, auto y) -> uint8_t {
            return fn(x, y) ? 1 : 0;
        };
        if (identity)
            detail::binarySweepIdentity(pa, pb, dst, out.numel(), cfn);
        else
            detail::binarySweepBroadcast(*runner, pa, pb, dst, cfn);
        return out;
    });
}

/**
 * Enumerate the 1-D slices of @p shape along @p axis:
 * `fn(base_offset)` is called once per slice; elements of the slice
 * live at `base + k * stride(axis)` for k in [0, dims[axis]).
 */
template <typename Fn>
void
forEachSlice(const Shape& shape, int axis, Fn&& fn)
{
    NNSMITH_ASSERT(axis >= 0 && axis < shape.rank(),
                   "forEachSlice axis ", axis, " out of range for rank ",
                   shape.rank());
    const auto strides = rowMajorStrides(shape);
    // Number of slices is the product of the non-axis dims — NOT
    // numel()/axis_dim, which collapses to 0 for an empty axis and
    // would silently skip every slice.
    int64_t n_slices = 1;
    for (int i = 0; i < shape.rank(); ++i) {
        if (i != axis)
            n_slices *= shape.dims[static_cast<size_t>(i)];
    }
    for (int64_t s = 0; s < n_slices; ++s) {
        int64_t rem = s;
        int64_t base = 0;
        for (int i = shape.rank() - 1; i >= 0; --i) {
            if (i == axis)
                continue;
            const int64_t dim = shape.dims[static_cast<size_t>(i)];
            base += (rem % dim) * strides[static_cast<size_t>(i)];
            rem /= dim;
        }
        fn(s, base);
    }
}

/** `shape.dims[axis]` with the same rank guard as forEachSlice — for
 *  callers that need the axis length before walking the slices. */
inline int64_t
axisDim(const Shape& shape, int axis)
{
    NNSMITH_ASSERT(axis >= 0 && axis < shape.rank(),
                   "forEachSlice axis ", axis, " out of range for rank ",
                   shape.rank());
    return shape.dims[static_cast<size_t>(axis)];
}

namespace detail {

/** [outer, axis, inner] decomposition shared by the reduce kernels. */
struct ReduceDims {
    Shape outShape;
    int64_t outer = 1;
    int64_t axisDim = 0;
    int64_t inner = 1;
};

inline ReduceDims
reduceDims(const Shape& in, int axis, bool keepdims)
{
    NNSMITH_ASSERT(axis >= 0 && axis < in.rank(), "applyReduce axis ", axis,
                   " out of range for rank ", in.rank());
    ReduceDims d;
    d.axisDim = in.dims[static_cast<size_t>(axis)];
    for (int i = 0; i < in.rank(); ++i) {
        const int64_t dim = in.dims[static_cast<size_t>(i)];
        if (i == axis) {
            if (keepdims)
                d.outShape.dims.push_back(1);
            continue;
        }
        if (i < axis)
            d.outer *= dim;
        else
            d.inner *= dim;
        d.outShape.dims.push_back(dim);
    }
    return d;
}

} // namespace detail

/**
 * Axis reduction. For each slice along @p axis:
 * `acc = init(tag)`, then `acc = combine(acc, v)` over the slice
 * (ascending), then `out[slice] = finalize(acc, axis_dim)`. Output
 * dtype == input dtype. An empty axis yields `finalize(init, 0)` —
 * the reduction identity — in every output element.
 */
template <typename InitFn, typename CombineFn, typename FinalFn>
Tensor
applyReduce(const Tensor& in, int axis, bool keepdims, InitFn&& init,
            CombineFn&& combine, FinalFn&& finalize)
{
    const detail::ReduceDims d = detail::reduceDims(in.shape(), axis,
                                                    keepdims);
    return dispatchDType(in.dtype(), [&](auto tag) {
        using Tag = decltype(tag);
        Tensor out = Tensor::uninitialized(in.dtype(), d.outShape);
        detail::reduceSweep(in.data<Tag>(), out.data<Tag>(), d.outer,
                            d.axisDim, d.inner, init, combine, finalize);
        return out;
    });
}

/**
 * Broadcasting three-way select: out dtype/shape follow the value
 * operands; @p cond is a bool tensor.
 */
Tensor applyWhere(const Tensor& cond, const Tensor& on_true,
                  const Tensor& on_false);

/**
 * Sum-reduce @p grad (shaped like a broadcast output) back to
 * @p in_shape — the reverse of broadcasting, used by backward kernels.
 */
Tensor sumToShape(const Tensor& grad, const Shape& in_shape);

} // namespace nnsmith::tensor

#endif // NNSMITH_TENSOR_KERNELS_H
