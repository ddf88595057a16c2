/**
 * @file
 * Operator-execution throughput harness for the typed kernel layer.
 *
 * Two sections, both wall-clock timed:
 *
 *  1. "campaign": an end-to-end NNSmith fuzzing campaign (generation +
 *     gradient value search + export + three simulated backends +
 *     difftest) with the value search configured *iteration-capped*
 *     instead of time-capped, so the amount of work per campaign
 *     iteration is fixed and wall-clock throughput (iterations/sec)
 *     reflects kernel speed rather than filling a time budget.
 *
 *  2. "kernels": single-op microbenchmarks (elements/sec) over large
 *     tensors for representative element loops (binary arithmetic,
 *     comparison, unary, reduce, where, cast) plus an OpRegistry::find
 *     lookup probe (ns/lookup) for the generator hot path.
 *
 * BENCH_typed_kernels.json at the repo root is a committed before/after
 * record of this output (see DESIGN.md "Numeric semantics and typed
 * kernels").
 *
 *   ./bench/bench_kernels [--seed N] [--iters N] [--out FILE]
 */
#include <thread>

#include "bench_util.h"
#include "json.h"
#include "ops/binary.h"
#include "ops/elementwise.h"
#include "ops/misc_ops.h"
#include "ops/reduce.h"

namespace {

using namespace nnsmith;
using bench::Clock;
using bench::secondsSince;

/** One single-op element-loop measurement. */
struct KernelScore {
    const char* label;
    double melemsPerSec;
};

double
timeOp(const ops::OpBase& op, const std::vector<tensor::Tensor>& inputs,
       int reps)
{
    // Throughput counts *processed* elements (largest input), so
    // reductions are not penalized for having small outputs.
    int64_t per_rep = 0;
    for (const auto& t : inputs)
        per_rep = std::max(per_rep, t.numel());
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) {
        const auto outputs = op.execute(inputs);
        if (outputs.empty())
            fatal("op produced no outputs during bench");
    }
    const double s = secondsSince(start);
    return s > 0.0
               ? static_cast<double>(per_rep) * reps / s / 1e6
               : 0.0;
}

ops::AttrMap
broadcastAttrs()
{
    ops::AttrMap attrs;
    for (int i = 0; i < ops::kMaxRank; ++i)
        attrs["bm" + std::to_string(i)] = 0;
    return attrs;
}

std::vector<KernelScore>
runKernelScores(uint64_t seed)
{
    using tensor::DType;
    using tensor::Shape;
    using tensor::Tensor;
    Rng rng(seed);
    const Shape big{{1 << 16}};
    const int reps = 200;

    const Tensor f32a = Tensor::random(DType::kF32, big, rng, 1.0, 9.0);
    const Tensor f32b = Tensor::random(DType::kF32, big, rng, 1.0, 9.0);
    const Tensor i64a = Tensor::random(DType::kI64, big, rng, -1e9, 1e9);
    const Tensor i64b = Tensor::random(DType::kI64, big, rng, -1e9, 1e9);
    const Tensor f64a = Tensor::random(DType::kF64, big, rng, 1.0, 9.0);
    const Tensor cond = Tensor::random(DType::kBool, big, rng, 0.0, 1.0);

    std::vector<KernelScore> scores;
    const auto binary = [&](ops::BinaryKind kind, const Tensor& a,
                            const Tensor& b, const char* label) {
        const ops::BinaryOp op(kind, broadcastAttrs());
        scores.push_back({label, timeOp(op, {a, b}, reps)});
    };
    binary(ops::BinaryKind::kAdd, f32a, f32b, "add_f32");
    binary(ops::BinaryKind::kDiv, f32a, f32b, "div_f32");
    binary(ops::BinaryKind::kMul, i64a, i64b, "mul_i64");
    binary(ops::BinaryKind::kLess, i64a, i64b, "less_i64");

    {
        const ops::UnaryOp op(ops::UnaryKind::kSigmoid, ops::AttrMap{});
        scores.push_back({"sigmoid_f32", timeOp(op, {f32a}, reps)});
    }
    {
        ops::AttrMap attrs{{"rank", 1}, {"axis", 0}, {"keepdims", 0}};
        const ops::ReduceOp op(ops::ReduceKind::kSum, attrs);
        scores.push_back({"reduce_sum_f32", timeOp(op, {f32a}, reps)});
    }
    {
        ops::AttrMap attrs;
        static const char* kPrefixes[3] = {"wc", "wt", "wf"};
        for (const char* p : kPrefixes)
            for (int i = 0; i < ops::kMaxRank; ++i)
                attrs[std::string(p) + std::to_string(i)] = 0;
        const ops::WhereOp op(attrs);
        scores.push_back({"where_f32", timeOp(op, {cond, f32a, f32b}, reps)});
    }
    {
        ops::CastOp op(ops::AttrMap{});
        op.setDTypes({{DType::kF64}, {DType::kI32}});
        scores.push_back({"cast_f64_i32", timeOp(op, {f64a}, reps)});
    }
    return scores;
}

/** OpRegistry::find over every registered name (generator hot path). */
double
registryFindNs()
{
    const auto& registry = ops::OpRegistry::global();
    std::vector<std::string> names;
    for (const auto& meta : registry.all())
        names.push_back(meta.name);
    const int reps = 20000;
    size_t found = 0;
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const auto& name : names)
            found += registry.find(name) != nullptr ? 1 : 0;
    }
    const double s = secondsSince(start);
    const double lookups = static_cast<double>(reps) *
                           static_cast<double>(names.size());
    if (found != static_cast<size_t>(lookups))
        fatal("registry lookup failed during bench");
    return s / lookups * 1e9;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/120);

    // Campaign throughput with fixed (iteration-capped) search work.
    const auto start = Clock::now();
    const auto campaign = fuzz::runParallelCampaign(
        bench::campaignConfig(options.seed, options.iters, "ortlite",
                              bench::heavyTensorFactory(),
                              difftest::makeAllBackends));
    const double seconds = secondsSince(start);
    const double iters_per_sec = campaign.iterations / seconds;
    std::printf("campaign: %zu iters in %.3fs -> %.2f iters/sec "
                "(coverage=%zu bugs=%zu)\n",
                campaign.iterations, seconds, iters_per_sec,
                campaign.coverAll.count(), campaign.bugs.size());

    const auto kernels = runKernelScores(options.seed);
    for (const auto& k : kernels)
        std::printf("kernel %-16s %10.2f Melem/s\n", k.label,
                    k.melemsPerSec);
    const double find_ns = registryFindNs();
    std::printf("registry find: %.1f ns/lookup\n", find_ns);

    bench::Json json;
    json.beginObject()
        .field("bench", "typed_kernels")
        .field("seed", options.seed)
        .field("hardware_threads", std::thread::hardware_concurrency());
    json.key("campaign")
        .beginObject(true)
        .field("iterations", campaign.iterations)
        .field("wall_seconds", seconds, 3)
        .field("iters_per_sec", iters_per_sec, 3)
        .field("coverage", campaign.coverAll.count())
        .field("bugs", campaign.bugs.size())
        .endObject();
    json.field("registry_find_ns", find_ns, 1);
    json.key("kernels_melems_per_sec").beginObject();
    for (const auto& k : kernels)
        json.field(k.label, k.melemsPerSec, 2);
    json.endObject().endObject();
    if (!bench::writeJson(options.outPath, json))
        return 1;
    return 0;
}
