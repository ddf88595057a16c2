#include "fuzz/mutator.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <set>

#include "backends/graph_pass.h"
#include "corpus/corpus.h"
#include "corpus/parser.h"
#include "fuzz/pass_fuzzer.h"
#include "graph/validate.h"
#include "obs/metrics.h"
#include "ops/broadcast.h"
#include "ops/registry.h"
#include "tirlite/tir.h"

namespace nnsmith::fuzz {

using graph::Graph;
using graph::NodeKind;
using ops::OpBase;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorType;

namespace {

/** Mutants per mutating iteration. Corpus repros are minimized — a
 *  single tiny mutant covers far less than the 10-op fresh draw it
 *  displaces — so a mutating iteration runs a burst of independently
 *  drawn mutants (costed individually; virtual time accounts for the
 *  extra work). */
constexpr int kMutationBurst = 3;

// ---- leaf regeneration -----------------------------------------------------

double
randomScalar(DType dtype, Rng& rng)
{
    if (dtype == DType::kBool)
        return rng.index(2) != 0 ? 1.0 : 0.0;
    if (tensor::isFloat(dtype))
        return rng.uniformReal(1.0, 9.0);
    return static_cast<double>(rng.uniformInt(1, 9));
}

/** Carry a leaf binding across a type change: same shape converts
 *  elementwise (preserving the %.17g-rendered values up to the dtype
 *  cast), a new shape refills like exec::randomLeaves. */
Tensor
regenerateLeaf(const Tensor& old, const TensorType& type, Rng& rng)
{
    const Shape shape = type.concreteShape();
    Tensor out = Tensor::zeros(type.dtype(), shape);
    if (shape == old.shape()) {
        for (int64_t i = 0; i < out.numel(); ++i)
            out.setScalar(i, old.scalarAt(i));
    } else {
        for (int64_t i = 0; i < out.numel(); ++i)
            out.setScalar(i, randomScalar(type.dtype(), rng));
    }
    return out;
}

// ---- mutation operators ----------------------------------------------------

/** Attr-free unary kinds safe to insert/swap per input dtype (total on
 *  their domain — no Log/Sqrt/Asin NaN traps). */
const std::vector<std::string>&
unaryNamesFor(DType dtype)
{
    static const std::vector<std::string> float_names = {
        "Relu", "Sigmoid", "Tanh", "Sin",   "Cos",  "Atan",
        "Abs",  "Neg",     "Exp",  "Floor", "Ceil", "Round"};
    static const std::vector<std::string> int_names = {"Abs", "Neg"};
    static const std::vector<std::string> bool_names = {"Not"};
    static const std::vector<std::string> none;
    if (tensor::isFloat(dtype))
        return float_names;
    if (dtype == DType::kI32 || dtype == DType::kI64)
        return int_names;
    if (dtype == DType::kBool)
        return bool_names;
    return none;
}

/** Reconstruct a registered op by name through the same OpRegistry
 *  machinery the corpus parser uses, then pin @p in_dtypes' combo. */
std::shared_ptr<OpBase>
reconstructFor(const std::string& name, const ops::AttrMap& attrs,
               const std::vector<DType>& in_dtypes)
{
    const ops::OpMeta* meta = ops::OpRegistry::global().find(name);
    if (meta == nullptr || !meta->reconstruct)
        return nullptr;
    auto op = meta->reconstruct(attrs);
    for (const auto& combo : op->dtypeCombos()) {
        if (combo.in == in_dtypes) {
            op->setDTypes(combo);
            return std::shared_ptr<OpBase>(std::move(op));
        }
    }
    return nullptr;
}

std::shared_ptr<OpBase>
makeUnary(const std::string& name, DType dtype)
{
    return reconstructFor(name, ops::AttrMap{}, {dtype});
}

/** A no-broadcast arithmetic binary applied as `x op x` — shapes are
 *  trivially compatible under the all-equal mask. */
std::shared_ptr<OpBase>
makeSelfBinary(DType dtype, Rng& rng)
{
    static const std::vector<std::string> names = {"Add", "Sub", "Mul",
                                                   "Max", "Min"};
    if (dtype == DType::kBool)
        return nullptr;
    ops::AttrMap attrs;
    for (int i = 0; i < ops::kMaxRank; ++i)
        attrs["bm" + std::to_string(i)] =
            static_cast<int64_t>(ops::BcastMask::kEqual);
    return reconstructFor(names[rng.index(names.size())], attrs,
                          {dtype, dtype});
}

std::shared_ptr<OpBase>
makeSoftmax(const TensorType& type, Rng& rng)
{
    if (!tensor::isFloat(type.dtype()) || type.rank() < 1 ||
        type.rank() > 4)
        return nullptr;
    ops::AttrMap attrs;
    attrs["rank"] = type.rank();
    attrs["axis"] = static_cast<int64_t>(
        rng.index(static_cast<size_t>(type.rank())));
    return reconstructFor("Softmax", attrs, {type.dtype()});
}

/** Insert: grow the mutant by hanging 1-4 fresh ops (unary, `x op x`
 *  binary, or Softmax) off random values. Minimized repros are tiny,
 *  so insertion regains some of the op diversity a fresh 10-op draw
 *  would have; the graph stays connected and densely topo-numbered —
 *  each new node is appended last. */
std::optional<GraphRepro>
tryInsert(const GraphRepro& seed, Rng& rng)
{
    auto rebuilt = rebuildGraph(seed.graph, seed.leaves);
    if (!rebuilt.has_value())
        return std::nullopt;
    Graph& g = rebuilt->graph;
    if (g.values().empty())
        return std::nullopt;
    const int inserts = 1 + static_cast<int>(rng.index(4));
    bool inserted = false;
    for (int k = 0; k < inserts; ++k) {
        const int value_id =
            static_cast<int>(rng.index(g.values().size()));
        const TensorType type = g.value(value_id).type;
        std::shared_ptr<OpBase> op;
        switch (rng.index(3)) {
          case 0: op = makeSelfBinary(type.dtype(), rng); break;
          case 1: op = makeSoftmax(type, rng); break;
          default: break;
        }
        if (op == nullptr) {
            const auto& names = unaryNamesFor(type.dtype());
            if (names.empty())
                continue;
            op = makeUnary(names[rng.index(names.size())], type.dtype());
        }
        if (op == nullptr)
            continue;
        const std::vector<int> inputs =
            op->numInputs() == 2 ? std::vector<int>{value_id, value_id}
                                 : std::vector<int>{value_id};
        g.addOp(std::move(op), inputs, {type});
        inserted = true;
    }
    if (!inserted)
        return std::nullopt;
    return rebuilt;
}

/** Delete: drop a random op and its transitive consumers (the kept set
 *  is producer-closed by construction); validate() rejects the mutant
 *  if the removal disconnects the graph. */
std::optional<GraphRepro>
tryDelete(const GraphRepro& seed, Rng& rng)
{
    const auto ops_in_order = seed.graph.opOrder();
    if (ops_in_order.size() < 2)
        return std::nullopt; // deleting the only op leaves no graph
    const int victim = ops_in_order[rng.index(ops_in_order.size())];

    std::set<int> removed = {victim};
    for (int id : seed.graph.topoOrder()) {
        const auto& node = seed.graph.node(id);
        if (node.kind != NodeKind::kOp || removed.count(id) != 0)
            continue;
        for (int v : node.inputs) {
            if (removed.count(seed.graph.value(v).producer) != 0) {
                removed.insert(id);
                break;
            }
        }
    }
    std::set<int> keep;
    for (int id : ops_in_order)
        if (removed.count(id) == 0)
            keep.insert(id);
    if (keep.empty())
        return std::nullopt;
    return rebuildGraph(seed.graph, seed.leaves, keep);
}

/** Swap: replace one attr-free unary op with another of the same
 *  dtype signature. */
std::optional<GraphRepro>
trySwap(const GraphRepro& seed, Rng& rng)
{
    std::vector<int> candidates;
    for (int id : seed.graph.opOrder()) {
        const auto& op = *seed.graph.node(id).op;
        if (op.numInputs() != 1 || op.numOutputs() != 1 ||
            op.inDTypes().size() != 1 ||
            op.inDTypes() != op.outDTypes())
            continue;
        const auto& names = unaryNamesFor(op.inDTypes()[0]);
        if (std::find(names.begin(), names.end(), op.name()) != names.end())
            candidates.push_back(id);
    }
    if (candidates.empty())
        return std::nullopt;
    const int target = candidates[rng.index(candidates.size())];
    const auto& current = *seed.graph.node(target).op;
    const DType dtype = current.inDTypes()[0];
    std::vector<std::string> alternatives;
    for (const auto& name : unaryNamesFor(dtype))
        if (name != current.name())
            alternatives.push_back(name);
    if (alternatives.empty())
        return std::nullopt;
    auto replacement =
        makeUnary(alternatives[rng.index(alternatives.size())], dtype);
    if (replacement == nullptr)
        return std::nullopt;
    RebuildSpec spec;
    spec.replaceOps[target] = std::move(replacement);
    return rebuildGraph(seed.graph, seed.leaves, spec);
}

DType
flipPartner(DType dtype)
{
    switch (dtype) {
      case DType::kF32: return DType::kF64;
      case DType::kF64: return DType::kF32;
      case DType::kI32: return DType::kI64;
      case DType::kI64: return DType::kI32;
      default: return dtype;
    }
}

/** Leaf nodes (Input/Weight) feeding at least one kept op. */
std::vector<int>
leafNodeIds(const Graph& g)
{
    std::set<int> fed;
    for (int id : g.opOrder()) {
        for (int v : g.node(id).inputs) {
            const auto& producer = g.node(g.value(v).producer);
            if (producer.kind != NodeKind::kOp)
                fed.insert(producer.id);
        }
    }
    return {fed.begin(), fed.end()};
}

/** Retype @p leaf to @p type, carrying its binding across
 *  (regenerateLeaf), and repropagate type transfer downstream. */
std::optional<GraphRepro>
retypeLeaf(const GraphRepro& seed, int leaf, const TensorType& type, Rng& rng)
{
    const int value = seed.graph.node(leaf).outputs[0];
    RebuildSpec spec;
    spec.leafValues.emplace(
        leaf, regenerateLeaf(seed.leaves.at(value), type, rng));
    spec.repropagateTypes = true;
    return rebuildGraph(seed.graph, seed.leaves, spec);
}

/** Dtype flip: widen/narrow one leaf (f32<->f64, i32<->i64) and
 *  repropagate type transfer through the whole graph. */
std::optional<GraphRepro>
tryDtypeFlip(const GraphRepro& seed, Rng& rng)
{
    std::vector<int> candidates;
    for (int id : leafNodeIds(seed.graph)) {
        const DType dtype =
            seed.graph.value(seed.graph.node(id).outputs[0]).type.dtype();
        if (flipPartner(dtype) != dtype)
            candidates.push_back(id);
    }
    if (candidates.empty())
        return std::nullopt;
    const int leaf = candidates[rng.index(candidates.size())];
    const TensorType old_type =
        seed.graph.value(seed.graph.node(leaf).outputs[0]).type;
    return retypeLeaf(seed, leaf,
                      TensorType::concrete(flipPartner(old_type.dtype()),
                                           old_type.concreteShape()),
                      rng);
}

/** Shape perturb: grow/shrink one dimension of one leaf by 1 and
 *  repropagate; ops whose requirements break fail validate() and fall
 *  back. */
std::optional<GraphRepro>
tryShapePerturb(const GraphRepro& seed, Rng& rng)
{
    std::vector<int> candidates;
    for (int id : leafNodeIds(seed.graph)) {
        if (seed.graph.value(seed.graph.node(id).outputs[0]).type.rank() > 0)
            candidates.push_back(id);
    }
    if (candidates.empty())
        return std::nullopt;
    const int leaf = candidates[rng.index(candidates.size())];
    const TensorType old_type =
        seed.graph.value(seed.graph.node(leaf).outputs[0]).type;
    Shape shape = old_type.concreteShape();
    const size_t dim = rng.index(shape.dims.size());
    int64_t& d = shape.dims[dim];
    if (d <= 1)
        d += 1;
    else if (d >= 8)
        d -= 1;
    else
        d += rng.chance(0.5) ? 1 : -1;
    return retypeLeaf(seed, leaf, TensorType::concrete(old_type.dtype(), shape),
                      rng);
}

/** The always-valid fallback: canonical rebuild + one leaf scalar
 *  nudged (types untouched, so validity is the seed's). */
GraphRepro
perturbLeafValues(const GraphRepro& seed, Rng& rng)
{
    auto rebuilt = rebuildGraph(seed.graph, seed.leaves);
    GraphRepro out = rebuilt.has_value() ? std::move(*rebuilt) : seed;
    if (out.leaves.empty())
        return out;
    auto it = out.leaves.begin();
    std::advance(it, rng.index(out.leaves.size()));
    Tensor& bound = it->second;
    if (bound.numel() == 0)
        return out;
    const int64_t i = static_cast<int64_t>(
        rng.index(static_cast<size_t>(bound.numel())));
    const double v = bound.scalarAt(i);
    double nudged;
    if (bound.dtype() == DType::kBool) {
        nudged = v != 0.0 ? 0.0 : 1.0;
    } else if (tensor::isFloat(bound.dtype())) {
        nudged = v * rng.uniformReal(0.5, 1.5) + rng.uniformReal(-1.0, 1.0);
        if (!std::isfinite(nudged))
            nudged = rng.uniformReal(1.0, 9.0);
    } else {
        nudged = static_cast<double>(static_cast<int64_t>(v) +
                                     rng.uniformInt(-2, 2));
    }
    bound.setScalar(i, nudged);
    return out;
}

/** The backend of @p list called @p name, or nullptr. */
backends::Backend*
namedBackend(const std::vector<backends::Backend*>& list,
             const std::string& name)
{
    for (backends::Backend* backend : list) {
        if (backend != nullptr && backend->name() == name)
            return backend;
    }
    return nullptr;
}

} // namespace

// ---- public mutation entry points ------------------------------------------

GraphRepro
mutateGraphCase(const GraphRepro& seed, Rng& rng)
{
    std::optional<GraphRepro> mutant;
    switch (rng.index(6)) {
      case 0: mutant = tryInsert(seed, rng); break;
      case 1: mutant = tryDelete(seed, rng); break;
      case 2: mutant = trySwap(seed, rng); break;
      case 3: mutant = tryDtypeFlip(seed, rng); break;
      case 4: mutant = tryShapePerturb(seed, rng); break;
      default: break; // value perturbation
    }
    if (mutant.has_value() && graph::validate(mutant->graph).ok()) {
        obs::counterAdd("mutate.graph.accepted");
        return std::move(*mutant);
    }
    obs::counterAdd("mutate.graph.fallback");
    return perturbLeafValues(seed, rng);
}

// ---- MutationPool ----------------------------------------------------------

MutationPool
MutationPool::fromCorpusDir(const std::string& dir)
{
    MutationPool pool;
    for (const auto& entry : corpus::loadCorpusIndex(dir)) {
        const std::string path =
            (std::filesystem::path(dir) / entry.file).string();
        try {
            // A parsed document always carries its repro.
            pool.seeds_.push_back(
                corpus::parseRepro(corpus::readCorpusFile(path)));
        } catch (const corpus::ParseError&) {
            // Replay classifies this file as parse-error; it cannot
            // seed mutations either.
        }
    }
    std::stable_sort(pool.seeds_.begin(), pool.seeds_.end(),
                     [](const BugRecord& a, const BugRecord& b) {
                         return a.repro->index() < b.repro->index();
                     });
    return pool;
}

// ---- CorpusGuidedFuzzer ----------------------------------------------------

CorpusGuidedFuzzer::CorpusGuidedFuzzer(std::unique_ptr<Fuzzer> inner,
                                       std::shared_ptr<const MutationPool> pool,
                                       uint64_t seed)
    : CorpusGuidedFuzzer(std::move(inner), std::move(pool), seed, Options())
{
}

CorpusGuidedFuzzer::CorpusGuidedFuzzer(std::unique_ptr<Fuzzer> inner,
                                       std::shared_ptr<const MutationPool> pool,
                                       uint64_t seed, Options options)
    : inner_(std::move(inner)), pool_(std::move(pool)), options_(options),
      rng_(seed)
{
    NNSMITH_ASSERT(inner_ != nullptr, "CorpusGuidedFuzzer: null inner fuzzer");
    NNSMITH_ASSERT(pool_ != nullptr, "CorpusGuidedFuzzer: null pool");
}

IterationOutcome
CorpusGuidedFuzzer::iterate(
    const std::vector<backends::Backend*>& backend_list)
{
    // Applicable seeds: graph repros need a difftest backend list;
    // graph-pass sequence repros need their owning backend present.
    // Both facts are fixed per campaign, so the candidate list — and
    // with it every draw below — depends only on the constructor seed.
    const auto& seeds = pool_->seeds();
    std::vector<size_t> candidates;
    for (size_t i = 0; i < seeds.size(); ++i) {
        const Repro& repro = *seeds[i].repro;
        if (std::holds_alternative<GraphRepro>(repro) && backend_list.empty())
            continue;
        if (std::holds_alternative<GraphSeqRepro>(repro) &&
            namedBackend(backend_list, seeds[i].backend) == nullptr)
            continue;
        candidates.push_back(i);
    }

    if (candidates.empty() || !rng_.chance(options_.mutationRate)) {
        obs::counterAdd("mutate.guided.fresh");
        return inner_->iterate(backend_list);
    }
    obs::counterAdd("mutate.guided.mutated");

    IterationOutcome outcome;
    for (int b = 0; b < kMutationBurst; ++b) {
        const BugRecord& seed = seeds[candidates[rng_.index(
            candidates.size())]];
        IterationOutcome one;
        if (const auto* graph = std::get_if<GraphRepro>(seed.repro.get()))
            one = runGraphMutant(*graph, backend_list);
        else if (const auto* tir = std::get_if<SeqRepro>(seed.repro.get()))
            one = runTirSeqMutant(*tir);
        else
            one = runGraphSeqMutant(std::get<GraphSeqRepro>(*seed.repro),
                                    *namedBackend(backend_list,
                                                  seed.backend));
        outcome.produced = outcome.produced || one.produced;
        outcome.cost += one.cost;
        for (auto& bug : one.bugs)
            outcome.bugs.push_back(std::move(bug));
        for (auto& key : one.instanceKeys)
            outcome.instanceKeys.push_back(std::move(key));
    }
    return outcome;
}

IterationOutcome
CorpusGuidedFuzzer::runGraphMutant(
    const GraphRepro& seed,
    const std::vector<backends::Backend*>& backend_list)
{
    const GraphRepro mutant = mutateGraphCase(seed, rng_);
    IterationOutcome outcome = executeGraphCase(mutant.graph, mutant.leaves,
                                                backend_list, options_.cost);
    // Mutation rebuilds instead of constraint-solving: a quarter of
    // the per-op generation cost.
    outcome.cost += options_.cost.generationPerOp / 4 *
                    std::max(1, mutant.graph.numOpNodes());
    outcome.instanceKeys = gen::instanceKeys(mutant.graph);

    // The sequence half of the loop, applied to graph seeds: drive the
    // mutant through a mutated pass pipeline of one pass-capable
    // backend. Fresh sampling always compiles with the fixed default
    // pipeline, so spliced/truncated/reordered pipelines reach
    // `<backend>/pass` branches and `<backend>/pass/seq` bins fresh
    // iterations cannot.
    std::vector<backends::Backend*> seq_backends;
    for (backends::Backend* backend : backend_list) {
        if (backend != nullptr &&
            backends::isGraphPassBackend(backend->name()))
            seq_backends.push_back(backend);
    }
    for (backends::Backend* backend : seq_backends) {
        auto sequence = backends::defaultPipeline(backend->name());
        const int steps = 1 + static_cast<int>(rng_.index(2));
        for (int s = 0; s < steps; ++s)
            sequence = backends::mutatePassSequence(backend->name(),
                                                    sequence, rng_);
        IterationOutcome seq = runGraphSequenceCase(
            *backend, mutant.graph, mutant.leaves, sequence,
            options_.cost);
        outcome.produced = outcome.produced || seq.produced;
        outcome.cost += seq.cost;
        for (auto& bug : seq.bugs)
            outcome.bugs.push_back(std::move(bug));
        for (auto& key : seq.instanceKeys)
            outcome.instanceKeys.push_back(std::move(key));
    }
    return outcome;
}

IterationOutcome
CorpusGuidedFuzzer::runTirSeqMutant(const SeqRepro& seed)
{
    tirlite::TirProgram program = seed.program;
    const int steps = static_cast<int>(rng_.index(3));
    for (int i = 0; i < steps; ++i)
        program = tirlite::mutate(program, rng_);
    const auto sequence =
        backends::mutatePassSequence("TVMLite", seed.sequence, rng_);
    return runTirSequenceCase(program, sequence, rng_);
}

IterationOutcome
CorpusGuidedFuzzer::runGraphSeqMutant(const GraphSeqRepro& seed,
                                      backends::Backend& backend)
{
    GraphRepro mutant = {seed.graph, seed.leaves};
    if (rng_.chance(0.5))
        mutant = mutateGraphCase(mutant, rng_);
    const auto sequence =
        backends::mutatePassSequence(backend.name(), seed.sequence, rng_);
    IterationOutcome outcome = runGraphSequenceCase(
        backend, mutant.graph, mutant.leaves, sequence, options_.cost);
    outcome.cost += options_.cost.generationPerOp / 4 *
                    std::max(1, mutant.graph.numOpNodes());
    return outcome;
}

} // namespace nnsmith::fuzz
