/** Tests for the regression-corpus subsystem: repro round-tripping
 *  (serialize -> parse -> re-serialize is byte-identical and replays
 *  to the same fingerprint), structured parse errors on malformed
 *  input (never a crash — this suite runs under ASan in the sanitize
 *  CI job), the committed golden mini-corpus, and corpus replay
 *  classification. */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "baselines/tzer.h"
#include "corpus/parser.h"
#include "corpus/replay.h"
#include "difftest/oracle.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/pass_fuzzer.h"
#include "tirlite/tir_interp.h"

namespace nnsmith {
namespace {

using corpus::ParseError;
using corpus::ReplayStatus;

std::filesystem::path
freshDir(const char* name)
{
    const auto dir = std::filesystem::path(testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::filesystem::path& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<backends::Backend*>
borrow(const std::vector<std::unique_ptr<backends::Backend>>& owned)
{
    std::vector<backends::Backend*> list;
    for (const auto& backend : owned)
        list.push_back(backend.get());
    return list;
}

/** The acceptance-campaign shape from bench_reduce/bench_corpus. */
fuzz::ParallelCampaignConfig
graphCampaign(uint64_t seed, size_t iters, const std::string& report_dir)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 240ll * 60 * 1000;
    config.campaign.maxIterations = iters;
    config.campaign.coverageComponent = "tvmlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    config.shards = 1;
    config.masterSeed = seed;
    config.fuzzerFactory = [](uint64_t iteration_seed) {
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 10;
        options.runValueSearch = false;
        return std::make_unique<fuzz::NNSmithFuzzer>(options,
                                                     iteration_seed);
    };
    config.backendFactory = [] { return difftest::makeAllBackends(); };
    return config;
}

fuzz::ParallelCampaignConfig
sequenceCampaign(uint64_t seed, size_t iters, const std::string& report_dir)
{
    auto config = graphCampaign(seed, iters, report_dir);
    config.fuzzerFactory = [](uint64_t iteration_seed) {
        return std::make_unique<fuzz::PassSequenceFuzzer>(iteration_seed);
    };
    config.backendFactory = [] {
        return std::vector<std::unique_ptr<backends::Backend>>{};
    };
    return config;
}

// ---- round-trip property --------------------------------------------------

TEST(CorpusRoundTrip, AcceptanceCampaignSerializeParseReserialize)
{
    // The satellite property: for every flagged case of a
    // 200-iteration --minimize campaign, serialize -> parse ->
    // re-serialize is byte-identical, and the parsed repro replays to
    // the same fingerprint.
    const auto dir = freshDir("nnsmith-corpus-roundtrip");
    fuzz::runParallelCampaign(graphCampaign(2023, 200, dir.string()));

    const auto entries = corpus::loadCorpusIndex(dir.string());
    ASSERT_GT(entries.size(), 0u);
    for (const auto& entry : entries) {
        const std::string text = readFile(dir / entry.file);
        const auto bug = corpus::parseRepro(text);
        EXPECT_EQ(bug.dedupKey, entry.fingerprint);
        EXPECT_EQ(corpus::renderRepro(bug), text) << entry.file;
    }

    auto owned = difftest::makeAllBackends();
    const auto replay = corpus::replayCorpus(dir.string(), borrow(owned));
    EXPECT_EQ(replay.total(), entries.size());
    EXPECT_EQ(replay.stillFires, entries.size());
    EXPECT_EQ(replay.changed, 0u);
    EXPECT_EQ(replay.fixed, 0u);
    EXPECT_EQ(replay.parseErrors, 0u);
    std::filesystem::remove_all(dir);
}

TEST(CorpusRoundTrip, SequenceCampaignSerializeParseReserialize)
{
    // Pass-sequence fuzzer repros, then Tzer's, which carry no initial
    // buffers: their documents end right after the program.
    const auto dir = freshDir("nnsmith-corpus-seq-roundtrip");
    auto tzer = sequenceCampaign(2023, 60, dir.string());
    tzer.fuzzerFactory = baselines::tzerFactory(2023);
    for (const auto& config :
         {sequenceCampaign(2023, 200, dir.string()), tzer}) {
        std::filesystem::remove_all(dir);
        fuzz::runParallelCampaign(config);
        const auto entries = corpus::loadCorpusIndex(dir.string());
        ASSERT_GT(entries.size(), 0u);
        for (const auto& entry : entries) {
            const std::string text = readFile(dir / entry.file);
            const auto bug = corpus::parseRepro(text);
            ASSERT_TRUE(std::holds_alternative<fuzz::SeqRepro>(*bug.repro))
                << entry.file;
            EXPECT_EQ(corpus::renderRepro(bug), text) << entry.file;
        }
        const auto replay = corpus::replayCorpus(dir.string(), {});
        EXPECT_EQ(replay.stillFires, entries.size());
    }
    std::filesystem::remove_all(dir);
}

TEST(CorpusRoundTrip, GraphSequenceCampaignSerializeParseReserialize)
{
    // The graph-level analogue: an OrtLite pass-sequence campaign's
    // repros carry (sequence, graph, leaves) and round-trip
    // byte-identically, then replay still-fires under the backend
    // oracle.
    const auto dir = freshDir("nnsmith-corpus-graphseq-roundtrip");
    auto config = sequenceCampaign(2023, 120, dir.string());
    config.campaign.coverageComponent = "ortlite";
    config.fuzzerFactory = [](uint64_t iteration_seed) {
        fuzz::PassSequenceFuzzer::Options options;
        options.backend = "OrtLite";
        return std::make_unique<fuzz::PassSequenceFuzzer>(iteration_seed,
                                                          options);
    };
    config.backendFactory = [] {
        std::vector<std::unique_ptr<backends::Backend>> owned;
        owned.push_back(backends::makeOrtLite());
        return owned;
    };
    fuzz::runParallelCampaign(config);

    const auto entries = corpus::loadCorpusIndex(dir.string());
    ASSERT_GT(entries.size(), 0u);
    for (const auto& entry : entries) {
        const std::string text = readFile(dir / entry.file);
        const auto bug = corpus::parseRepro(text);
        const auto* repro = std::get_if<fuzz::GraphSeqRepro>(bug.repro.get());
        ASSERT_NE(repro, nullptr) << entry.file;
        EXPECT_EQ(bug.backend, "OrtLite");
        EXPECT_FALSE(repro->sequence.empty());
        EXPECT_EQ(corpus::renderRepro(bug), text) << entry.file;
    }
    const auto replay = corpus::replayCorpus(dir.string(), {});
    EXPECT_EQ(replay.total(), entries.size());
    EXPECT_EQ(replay.stillFires, entries.size());
    std::filesystem::remove_all(dir);
}

// ---- focused parsers ------------------------------------------------------

TEST(CorpusParser, GraphTextRoundTripsThroughToString)
{
    const std::string text = "graph {\n"
                             "  %0:f64[] = Weight()\n"
                             "  %1:f64[] = Sqrt{}(%0)\n"
                             "}";
    std::map<int, int> id_map;
    const auto graph = corpus::parseGraphText(text, &id_map);
    EXPECT_EQ(graph.numOpNodes(), 1);
    EXPECT_EQ(id_map.at(0), 0);
    EXPECT_EQ(id_map.at(1), 1);
    EXPECT_EQ(graph.toString(), text);
}

TEST(CorpusParser, TirProgramTextRoundTripsThroughToString)
{
    const std::string text = "buffer b0[4] (input)\n"
                             "buffer b1[4]\n"
                             "for i0 in 0..4 {\n"
                             "  b1[(i0 % 4)] = "
                             "(sqrtf(b0[(i0 % 4)]) max -1.5);\n"
                             "}\n";
    const auto program = corpus::parseTirProgramText(text);
    EXPECT_EQ(program.numInputs, 1);
    ASSERT_EQ(program.bufferSizes.size(), 2u);
    const auto stats = tirlite::analyze(program);
    EXPECT_EQ(stats.loops, 1);
    EXPECT_EQ(stats.stores, 1);
    EXPECT_TRUE(stats.hasIntrinsics);
    EXPECT_EQ(program.toString(), text);
}

TEST(CorpusParser, MalformedInputsAreStructuredErrors)
{
    // Unknown operator.
    EXPECT_THROW(corpus::parseGraphText("graph {\n"
                                        "  %0:f32[2] = Input()\n"
                                        "  %1:f32[2] = Bogus{}(%0)\n"
                                        "}"),
                 ParseError);
    // Symbolic (non-concrete) dim.
    EXPECT_THROW(
        corpus::parseGraphText("graph {\n  %0:f32[s0] = Input()\n}"),
        ParseError);
    // Unknown dtype.
    EXPECT_THROW(
        corpus::parseGraphText("graph {\n  %0:f16[2] = Input()\n}"),
        ParseError);
    // Unpromoted placeholder: not executable, so not a replayable
    // repro (it would panic the interpreter downstream).
    EXPECT_THROW(
        corpus::parseGraphText("graph {\n  %0:f32[2] = Placeholder()\n}"),
        ParseError);
    // Input not yet produced (broken topological order).
    EXPECT_THROW(corpus::parseGraphText("graph {\n"
                                        "  %1:f32[2] = Abs{}(%0)\n"
                                        "}"),
                 ParseError);
    // Wrong arity for a known operator.
    EXPECT_THROW(corpus::parseGraphText("graph {\n"
                                        "  %0:f32[2] = Input()\n"
                                        "  %1:f32[2] = Add{}(%0)\n"
                                        "}"),
                 ParseError);
    // Truncated TIR program / undeclared buffer / bad extent.
    EXPECT_THROW(corpus::parseTirProgramText("buffer b0[4] (input)\n"
                                             "for i0 in 0..4 {\n"),
                 ParseError);
    EXPECT_THROW(corpus::parseTirProgramText("buffer b0[4] (input)\n"
                                             "b3[0] = 1.5;\n"),
                 ParseError);
    EXPECT_THROW(corpus::parseTirProgramText("buffer b0[4] (input)\n"
                                             "b0[0] = (1.0 ? 2.0);\n"),
                 ParseError);
    // Empty text is not a program.
    EXPECT_THROW(corpus::parseTirProgramText(""), ParseError);
    // Negative loop depth would index the interpreter's loop-var
    // environment out of bounds at replay.
    EXPECT_THROW(corpus::parseTirProgramText("buffer b0[4] (input)\n"
                                             "for i-1 in 0..2 {\n"
                                             "  b0[0] = 1.0;\n"
                                             "}\n"),
                 ParseError);
    // Crafted deep nesting must hit the recursion cap, not the stack.
    const std::string deep_expr = "buffer b0[4] (input)\nb0[0] = " +
                                  std::string(5000, '(') + "1.0;\n";
    EXPECT_THROW(corpus::parseTirProgramText(deep_expr), ParseError);
    // Well-formed 300-deep loop nest (store innermost, every brace
    // closed): the only failure path is the recursion cap itself —
    // which must not be fooled by the constant per-line loop-var depth.
    std::string deep_loops = "buffer b0[4] (input)\n";
    for (int i = 0; i < 300; ++i)
        deep_loops += std::string(static_cast<size_t>(2 * i), ' ') +
                      "for i0 in 0..2 {\n";
    deep_loops += std::string(600, ' ') + "b0[0] = 1.0;\n";
    for (int i = 299; i >= 0; --i)
        deep_loops += std::string(static_cast<size_t>(2 * i), ' ') + "}\n";
    EXPECT_THROW(corpus::parseTirProgramText(deep_loops), ParseError);
}

TEST(CorpusParser, GraphSequenceReproErrors)
{
    // The committed OrtLite golden repro is the well-formed baseline.
    const std::filesystem::path data =
        std::filesystem::path(NNSMITH_TEST_DATA_DIR) / "corpus";
    const std::string text = readFile(
        data / "OrtLite_crash_ort.fuse.matmul_scale_1x1-b8451f53"
               ".repro.txt");
    ASSERT_FALSE(text.empty());
    const auto bug = corpus::parseRepro(text);
    const auto* repro = std::get_if<fuzz::GraphSeqRepro>(bug.repro.get());
    ASSERT_NE(repro, nullptr);
    EXPECT_EQ(repro->sequence, std::vector<std::string>{"fuse.matmul_scale"});

    auto mutate = [&](const std::string& from, const std::string& to) {
        const auto at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        std::string mutated = text;
        mutated.replace(at, from.size(), to);
        return mutated;
    };
    // A pass name the backend's registry does not know. The \n
    // anchors pin the rewrite to the sequence line — the fingerprint
    // line contains "fuse.matmul_scale" as a substring too.
    EXPECT_THROW(corpus::parseRepro(mutate("\nfuse.matmul_scale\n",
                                           "\nno.such.pass\n")),
                 ParseError);
    // A pass of the *other* graph registry is just as unknown.
    EXPECT_THROW(corpus::parseRepro(mutate("\nfuse.matmul_scale\n",
                                           "\ntactic.matmul_relu\n")),
                 ParseError);
    // Wrong backend tag: the sequence is validated against the tagged
    // backend's registry (TVMLite has no graph pass of this name)...
    EXPECT_THROW(
        corpus::parseRepro(mutate("backend: OrtLite",
                                  "backend: TVMLite")),
        ParseError);
    // ...and a backend with no sequenceable registry at all is a
    // structured error too.
    EXPECT_THROW(
        corpus::parseRepro(mutate("backend: OrtLite",
                                  "backend: Exporter")),
        ParseError);
    // Truncation right after the sequence line: the graph section is
    // required.
    const auto graph_at = text.find(corpus::schema::kSectionGraph);
    ASSERT_NE(graph_at, std::string::npos);
    EXPECT_THROW(corpus::parseRepro(text.substr(0, graph_at)),
                 ParseError);
    // An empty sequence is not a repro.
    EXPECT_THROW(corpus::parseRepro(mutate("fuse.matmul_scale\n", "\n")),
                 ParseError);
}

TEST(CorpusParser, EmptyFingerprintIsAnError)
{
    // Replay and dedup key off the fingerprint line, so a repro
    // without one is malformed, like a repro-less wire document.
    const std::filesystem::path data =
        std::filesystem::path(NNSMITH_TEST_DATA_DIR) / "corpus";
    std::string text = readFile(
        data / "OrtLite_crash_ort.fuse.matmul_scale_1x1-b8451f53"
               ".repro.txt");
    ASSERT_NO_THROW(corpus::parseRepro(text));
    const std::string line =
        "fingerprint: OrtLite|crash|ort.fuse.matmul_scale_1x1\n";
    const auto at = text.find(line);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, line.size(), "fingerprint: \n");
    EXPECT_THROW(corpus::parseRepro(text), ParseError);
}

TEST(CorpusParser, IndexTsvErrors)
{
    EXPECT_THROW(corpus::parseIndexTsv(""), ParseError);
    EXPECT_THROW(corpus::parseIndexTsv("wrong\theader\n"), ParseError);
    const std::string header =
        std::string(corpus::schema::kIndexHeader) + "\n";
    // Wrong column count.
    EXPECT_THROW(corpus::parseIndexTsv(header + "a\tb\tc\td\n"),
                 ParseError);
    EXPECT_THROW(corpus::parseIndexTsv(header + "a\tb\tc\td\te\tf\n"),
                 ParseError);
    // Non-numeric size columns (stoull would quietly wrap "-1").
    EXPECT_THROW(corpus::parseIndexTsv(header + "a\tb\tcrash\tx\t1\n"),
                 ParseError);
    EXPECT_THROW(corpus::parseIndexTsv(header + "a\tb\tcrash\t-1\t1\n"),
                 ParseError);
    // Digits only, but past uint64_t (2^64).
    EXPECT_THROW(corpus::parseIndexTsv(header + "a\tb\tcrash\t1\t"
                                                "18446744073709551616\n"),
                 ParseError);
    // A good row parses.
    const auto entries =
        corpus::parseIndexTsv(header + "K|crash|d\tk.repro.txt\tcrash"
                                       "\t10\t2\n");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].fingerprint, "K|crash|d");
    EXPECT_EQ(entries[0].originalSize, 10u);
    EXPECT_EQ(entries[0].minimizedSize, 2u);
    // Missing directory.
    EXPECT_THROW(corpus::loadCorpusIndex("/nonexistent/nnsmith-corpus"),
                 ParseError);
}

TEST(CorpusWrite, FullDiskIsFatal)
{
    // /dev/full accepts open() and fails every write with ENOSPC: a
    // small file fails at the buffered flush in fclose, a large one
    // already in fwrite. Neither may leave a silently truncated file.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full is not available";
    EXPECT_THROW(corpus::writeCorpusFile("/dev/full", "index\n"),
                 FatalError);
    EXPECT_THROW(corpus::writeCorpusFile("/dev/full",
                                         std::string(1 << 20, 'x')),
                 FatalError);
    EXPECT_THROW(corpus::writeCorpusFile("/nonexistent/nnsmith/x.tsv",
                                         "index\n"),
                 FatalError);
}

TEST(CorpusParser, MutatedReproFilesNeverCrashTheParser)
{
    // A few dozen deterministic mutations over the committed golden
    // repros: every one must either parse or throw ParseError —
    // anything else (internal panic, UB caught by ASan) fails here.
    const std::filesystem::path data =
        std::filesystem::path(NNSMITH_TEST_DATA_DIR) / "corpus";
    size_t attempts = 0;
    auto try_parse = [&](const std::string& text) {
        ++attempts;
        try {
            EXPECT_NE(corpus::parseRepro(text).repro, nullptr);
        } catch (const ParseError&) {
            // structured failure: exactly what malformed input owes us
        }
    };
    const std::vector<std::pair<std::string, std::string>> rewrites = {
        {"Sqrt", "Bogus"},           // unknown op
        {"loop-fusion", "bogus-pass"}, // unknown TIR pass
        {"\nfuse.matmul_scale\n", "\nno.such.pass\n"}, // unknown graph pass
        {"\ntactic.pointwise_fusion\n", "\ntactic.nope\n"}, // unknown tactic
        {"dead-store-elim", ""},     // empty pass name
        {"8.8803584237131687", "nan"},  // NaN leaf literal
        {"6.5237684740684045", "inf"},  // Inf buffer literal
        {"6.5237684740684045", "0x1p3"}, // hex-float garbage
        {"f64[]", "f64[2"},          // truncated type
        {"kind: crash", "kind: mystery"},
        {"reduction: ", "reductoin: "},
        {"reduction: 10", "reduction: -10"},
        {"--- leaves ---", "--- leafs ---"},
        {"--- tir program ---", "--- tir ---"},
        {"b0[", "b9["},              // undeclared buffer
        {"%0", "%7"},                // dangling value id
        {" = Input()", " = Input(%0)"},
        {" = Input()", " = Placeholder()"},
        {"for i0 in 0..4 {", "for i0 in 0..-4 {"},
        {"(input)", "(output)"},
    };
    for (const auto& entry : corpus::loadCorpusIndex(data.string())) {
        const std::string text = readFile(data / entry.file);
        ASSERT_FALSE(text.empty());
        // Truncations at 16 positions through the file.
        for (size_t k = 1; k <= 16; ++k)
            try_parse(text.substr(0, text.size() * k / 17));
        // Targeted token rewrites (skipped when the token is absent).
        for (const auto& [from, to] : rewrites) {
            const auto at = text.find(from);
            if (at == std::string::npos)
                continue;
            std::string mutated = text;
            mutated.replace(at, from.size(), to);
            try_parse(mutated);
        }
        // Line-level deletions of the first 8 lines.
        for (size_t drop = 0; drop < 8; ++drop) {
            std::istringstream is(text);
            std::ostringstream os;
            std::string line;
            size_t index = 0;
            while (std::getline(is, line)) {
                if (index++ != drop)
                    os << line << "\n";
            }
            try_parse(os.str());
        }
    }
    EXPECT_GT(attempts, 100u); // "a few dozen" per repro, and then some
}

// ---- golden mini-corpus ---------------------------------------------------

TEST(GoldenCorpus, SeedRegressionSuiteStillFires)
{
    const std::filesystem::path data =
        std::filesystem::path(NNSMITH_TEST_DATA_DIR) / "corpus";
    auto owned = difftest::makeAllBackends();
    const auto replay = corpus::replayCorpus(data.string(), borrow(owned));
    ASSERT_EQ(replay.total(), 11u);
    for (const auto& outcome : replay.outcomes) {
        EXPECT_EQ(outcome.status, ReplayStatus::kStillFires)
            << outcome.fingerprint << ": "
            << corpus::replayStatusName(outcome.status) << " "
            << outcome.detail;
    }
    // The golden files are canonical: byte-identical round trips.
    for (const auto& entry : corpus::loadCorpusIndex(data.string())) {
        const std::string text = readFile(data / entry.file);
        EXPECT_EQ(corpus::renderRepro(corpus::parseRepro(text)), text)
            << entry.file;
    }
    // Replay is deterministic: same corpus, same bytes.
    const auto again = corpus::replayCorpus(data.string(), borrow(owned));
    EXPECT_EQ(corpus::renderRegressions(replay),
              corpus::renderRegressions(again));
}

// ---- replay classification ------------------------------------------------

TEST(CorpusReplay, CleanGraphClassifiesAsFixed)
{
    fuzz::BugRecord bug;
    bug.dedupKey = "OrtLite|crash|ort.bogus.kind";
    bug.backend = "OrtLite";
    bug.kind = "crash";
    fuzz::GraphRepro repro;
    const int v = repro.graph.addLeaf(
        graph::NodeKind::kInput,
        tensor::TensorType::concrete(tensor::DType::kF32, {{2}}), "x");
    repro.leaves.emplace(v, tensor::Tensor::fromVector<float>({1.0f, 2.0f}));
    bug.repro = std::make_shared<const fuzz::Repro>(std::move(repro));

    auto owned = difftest::makeAllBackends();
    const auto outcome = corpus::replayRepro(bug, borrow(owned));
    EXPECT_EQ(outcome.status, ReplayStatus::kFixed);
}

TEST(CorpusReplay, ShiftedSequenceCrashClassifiesAsChanged)
{
    const std::filesystem::path data =
        std::filesystem::path(NNSMITH_TEST_DATA_DIR) / "corpus";
    const auto entries = corpus::loadCorpusIndex(data.string());
    const auto crash = std::find_if(
        entries.begin(), entries.end(), [](const corpus::CorpusEntry& e) {
            return e.fingerprint == "TVMLite|crash|tvm.tir.cse_load";
        });
    ASSERT_NE(crash, entries.end());
    auto bug = corpus::parseRepro(readFile(data / crash->file));

    // Same repro, different recorded crash kind: the crash that fires
    // is no longer the fingerprint on record -> "changed".
    bug.dedupKey = "TVMLite|crash|tvm.tir.some_other_kind";
    auto outcome = corpus::replayRepro(bug, {});
    EXPECT_EQ(outcome.status, ReplayStatus::kChanged);
    EXPECT_EQ(outcome.detail, "TVMLite|crash|tvm.tir.cse_load");

    // Same record with a sequence that triggers nothing -> "fixed".
    auto defused = std::get<fuzz::SeqRepro>(*bug.repro);
    defused.sequence = {"fold"};
    bug.repro = std::make_shared<const fuzz::Repro>(std::move(defused));
    bug.dedupKey = "TVMLite|crash|tvm.tir.cse_load";
    outcome = corpus::replayRepro(bug, {});
    EXPECT_EQ(outcome.status, ReplayStatus::kFixed);
}

TEST(CorpusReplay, GraphSequenceReproClassifiesEveryVerdict)
{
    // A graph-pass sequence repro replays through its backend's
    // run(kO0)-vs-runWithPasses oracle.
    const std::filesystem::path data =
        std::filesystem::path(NNSMITH_TEST_DATA_DIR) / "corpus";
    const auto entries = corpus::loadCorpusIndex(data.string());
    auto parse = [&](const std::string& fingerprint) {
        const auto entry = std::find_if(
            entries.begin(), entries.end(),
            [&](const corpus::CorpusEntry& e) {
                return e.fingerprint == fingerprint;
            });
        EXPECT_NE(entry, entries.end()) << fingerprint;
        return corpus::parseRepro(readFile(data / entry->file));
    };
    const auto bug = parse("OrtLite|wrong|ort.simplify.slice_noop");
    ASSERT_TRUE(std::holds_alternative<fuzz::GraphSeqRepro>(*bug.repro));
    const auto& graph_seq = std::get<fuzz::GraphSeqRepro>(*bug.repro);
    EXPECT_EQ(corpus::replayRepro(bug, {}).status,
              ReplayStatus::kStillFires);

    // A sequence without the firing pass runs clean -> "fixed".
    auto defused = bug;
    auto repro = graph_seq;
    repro.sequence = {"fuse.matmul_add_gemm"};
    defused.repro = std::make_shared<const fuzz::Repro>(std::move(repro));
    EXPECT_EQ(corpus::replayRepro(defused, {}).status,
              ReplayStatus::kFixed);

    // The same repro on record for another defect -> "changed".
    auto shifted = bug;
    shifted.dedupKey = "OrtLite|wrong|ort.misc.parallel_reorder";
    EXPECT_EQ(corpus::replayRepro(shifted, {}).status,
              ReplayStatus::kChanged);

    // A model whose export crashes never reaches the pass stage: the
    // recorded defect is masked, which is "changed", not "fixed".
    const auto exporter = parse("Exporter|crash|export.scalar");
    const auto* exported = std::get_if<fuzz::GraphRepro>(exporter.repro.get());
    ASSERT_NE(exported, nullptr);
    auto masked = bug;
    masked.repro = std::make_shared<const fuzz::Repro>(fuzz::GraphSeqRepro{
        exported->graph, exported->leaves, graph_seq.sequence});
    EXPECT_EQ(corpus::replayRepro(masked, {}).status,
              ReplayStatus::kChanged);
}

TEST(CorpusReplay, SequenceFingerprintIsAuthoritativeOverDefectsLine)
{
    // A hand edit can desynchronize the (metadata) defects line from
    // the fingerprint; classification must key off the fingerprint.
    const std::filesystem::path data =
        std::filesystem::path(NNSMITH_TEST_DATA_DIR) / "corpus";
    const auto entries = corpus::loadCorpusIndex(data.string());
    const auto semantic = std::find_if(
        entries.begin(), entries.end(), [](const corpus::CorpusEntry& e) {
            return e.fingerprint == "TVMLite|wrong|tvm.tir.dead_store";
        });
    ASSERT_NE(semantic, entries.end());
    auto bug = corpus::parseRepro(readFile(data / semantic->file));
    bug.defects = {"tvm.tir.cse_load"}; // desynchronized metadata
    bug.minimizedDefects = bug.defects;
    const auto outcome = corpus::replayRepro(bug, {});
    EXPECT_EQ(outcome.status, ReplayStatus::kStillFires);
}

TEST(CorpusReplay, CampaignRunsReplayBeforeFuzzing)
{
    // Emit a small corpus, then point a campaign at it via
    // CampaignConfig::corpusDir: the result carries the replay
    // verdicts and regressions.tsv lands next to the reports — and
    // the fuzzing half of the campaign (coverage, bugs, series) is
    // unchanged by the replay.
    const auto dir = freshDir("nnsmith-corpus-campaign");
    const auto emitted =
        fuzz::runParallelCampaign(graphCampaign(7, 48, dir.string()));
    ASSERT_GT(emitted.bugs.size(), 0u);

    auto with_corpus = graphCampaign(7, 48, "");
    with_corpus.campaign.corpusDir = dir.string();
    const auto replayed = fuzz::runParallelCampaign(with_corpus);
    EXPECT_EQ(replayed.regressions.total(),
              corpus::loadCorpusIndex(dir.string()).size());
    EXPECT_EQ(replayed.regressions.stillFires,
              replayed.regressions.total());
    EXPECT_TRUE(std::filesystem::exists(dir / "regressions.tsv"));
    EXPECT_EQ(readFile(dir / "regressions.tsv"),
              corpus::renderRegressions(replayed.regressions));

    // --corpus must not perturb the campaign itself.
    const auto baseline = fuzz::runParallelCampaign(graphCampaign(7, 48, ""));
    EXPECT_EQ(baseline.coverAll.branches(), replayed.coverAll.branches());
    EXPECT_EQ(baseline.iterations, replayed.iterations);
    std::set<std::string> a, b;
    for (const auto& [key, bug] : baseline.bugs)
        a.insert(key);
    for (const auto& [key, bug] : replayed.bugs)
        b.insert(key);
    EXPECT_EQ(a, b);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace nnsmith
