#include "backends/graph_pass.h"

#include <algorithm>
#include <cctype>

#include "coverage/coverage.h"
#include "support/logging.h"
#include "tirlite/tir_passes.h"

namespace nnsmith::backends {

namespace {

std::string
lowercased(const std::string& backend)
{
    std::string out = backend;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

} // namespace

bool
isGraphPassBackend(const std::string& backend)
{
    return backend == "OrtLite" || backend == "TrtLite";
}

const std::vector<GraphPass>&
graphPasses(const std::string& backend)
{
    if (backend == "OrtLite")
        return ortLiteGraphPasses();
    if (backend == "TrtLite")
        return trtLiteGraphPasses();
    NNSMITH_PANIC("no graph-pass registry for backend ", backend);
}

const GraphPass*
findGraphPass(const std::string& backend, const std::string& name)
{
    if (!isGraphPassBackend(backend))
        return nullptr;
    for (const auto& pass : graphPasses(backend)) {
        if (name == pass.name)
            return &pass;
    }
    return nullptr;
}

void
runGraphPasses(const onnx::OnnxModel& model, const std::string& backend,
               const std::vector<std::string>& pass_names,
               std::vector<std::string>& fired_semantic)
{
    for (const auto& name : pass_names) {
        const GraphPass* pass = findGraphPass(backend, name);
        NNSMITH_ASSERT(pass != nullptr, "unknown ", backend,
                       " graph pass ", name);
        pass->apply(model, fired_semantic);
    }
}

const std::vector<std::string>&
passNames(const std::string& backend)
{
    static const auto names_of = [](const auto& registry) {
        std::vector<std::string> names;
        for (const auto& pass : registry)
            names.push_back(pass.name);
        return names;
    };
    static const std::vector<std::string> tvm =
        names_of(tirlite::tirPasses());
    static const std::vector<std::string> ort =
        names_of(ortLiteGraphPasses());
    static const std::vector<std::string> trt =
        names_of(trtLiteGraphPasses());
    if (backend == "TVMLite")
        return tvm;
    if (backend == "OrtLite")
        return ort;
    if (backend == "TrtLite")
        return trt;
    NNSMITH_PANIC("no pass registry for backend ", backend);
}

const std::vector<std::string>&
defaultPipeline(const std::string& backend)
{
    if (backend == "TVMLite") {
        // simplify-index before fold preserves the historical pipeline
        // exactly: the nested-mod defect trigger inspects the
        // *unfolded* index expressions, and everything downstream of
        // fold sees the folded tree.
        static const std::vector<std::string> tvm = {
            "simplify-index",     "fold",           "unroll",
            "vectorize-annotate", "dead-store-elim", "cse",
        };
        return tvm;
    }
    // Graph registration order IS the historical monolithic scan
    // order, so the default pipeline is every registered pass in order.
    return passNames(backend);
}

std::vector<std::string>
drawPassSequence(const std::string& backend, Rng& rng)
{
    const auto& registry = passNames(backend);
    std::vector<std::string> names;
    for (const auto& name : registry) {
        if (rng.chance(0.6))
            names.push_back(name);
    }
    if (names.empty())
        names.push_back(registry[rng.index(registry.size())]);
    rng.shuffle(names);
    return names;
}

std::vector<std::string>
mutatePassSequence(const std::string& backend,
                   const std::vector<std::string>& sequence, Rng& rng)
{
    const auto& registry = passNames(backend);
    std::vector<std::string> out = sequence;
    if (out.empty())
        return {registry[rng.index(registry.size())]};
    switch (rng.index(3)) {
      case 0: { // splice
        const auto& pass = registry[rng.index(registry.size())];
        out.insert(out.begin() +
                       static_cast<std::ptrdiff_t>(rng.index(out.size() + 1)),
                   pass);
        break;
      }
      case 1: { // truncate (keep nonempty)
        if (out.size() >= 2)
            out.erase(out.begin() +
                      static_cast<std::ptrdiff_t>(rng.index(out.size())));
        else
            out.push_back(registry[rng.index(registry.size())]);
        break;
      }
      default: { // reorder
        if (out.size() >= 2) {
            const size_t a = rng.index(out.size());
            const size_t b = rng.index(out.size());
            std::swap(out[a], out[b]);
        } else {
            out.push_back(registry[rng.index(registry.size())]);
        }
        break;
      }
    }
    return out;
}

std::vector<std::string>
sequenceCoverageBins(const std::vector<std::string>& sequence)
{
    std::vector<std::string> bins;
    if (sequence.empty())
        return bins;
    bins.push_back("len/" + std::to_string(sequence.size()));
    bins.push_back("first/" + sequence.front());
    bins.push_back("last/" + sequence.back());
    for (size_t i = 0; i + 1 < sequence.size(); ++i)
        bins.push_back("pair/" + sequence[i] + ">" + sequence[i + 1]);
    return bins;
}

void
recordSequenceCoverage(const std::string& backend,
                       const std::vector<std::string>& sequence)
{
    auto& registry = coverage::CoverageRegistry::instance();
    const std::string component = lowercased(backend) + "/pass/seq";
    for (const auto& bin : sequenceCoverageBins(sequence))
        registry.hitDynamic(component, bin, /*pass_only=*/true);
}

const std::vector<std::string>&
stagePassSequence(const std::string& backend, uint64_t pass_fuzz_seed,
                  const std::function<uint64_t()>& case_hash,
                  std::vector<std::string>& drawn)
{
    if (pass_fuzz_seed == 0)
        return defaultPipeline(backend);
    Rng rng(pass_fuzz_seed ^ case_hash());
    drawn = drawPassSequence(backend, rng);
    recordSequenceCoverage(backend, drawn);
    return drawn;
}

uint64_t
hashOnnxModel(const onnx::OnnxModel& model)
{
    // FNV-1a over the stable text serialization: structural, and
    // identical across shards for identical test cases.
    uint64_t hash = 1469598103934665603ull;
    for (char c : model.serialize()) {
        hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
        hash *= 0x100000001B3ull;
    }
    return hash;
}

std::vector<std::string>
subtractFired(const std::vector<std::string>& fired,
              const std::vector<std::string>& baseline)
{
    std::vector<std::string> pool = baseline;
    std::vector<std::string> novel;
    for (const auto& id : fired) {
        auto hit = std::find(pool.begin(), pool.end(), id);
        if (hit != pool.end())
            pool.erase(hit);
        else
            novel.push_back(id);
    }
    return novel;
}

} // namespace nnsmith::backends
