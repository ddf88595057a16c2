/**
 * @file
 * Regression-corpus round-trip + replay harness.
 *
 * Full mode (no --corpus) drives the whole reduce -> corpus -> replay
 * loop on the acceptance campaign and records BENCH_corpus.json:
 *
 *  1. "emit": the 200-iteration NNSmith campaign against the full
 *     backend trio with --minimize on writes its repro corpus
 *     (29 fingerprints at the committed seed); minimizing
 *     PassSequenceFuzzer campaigns write a TIR sequence corpus and an
 *     OrtLite+TrtLite graph-pass sequence corpus alongside, one dir
 *     each — every repro kind.
 *  2. "round trip": every emitted repro must satisfy
 *     renderRepro(parseRepro(text)) == text, byte for byte.
 *  3. "replay": replaying the three corpora against the live oracles
 *     must classify every fingerprint still-fires (same code, same
 *     bugs — the seed regression suite property).
 *  4. "shard invariance": a campaign with --corpus + --minimize must
 *     produce byte-identical regressions.tsv and identical merged
 *     results for shards {1, 2, 4}.
 *
 * Replay-only mode (`--corpus DIR`) re-checks an existing corpus and
 * exits zero only when every fingerprint classifies `still-fires` —
 * the scripts/check.sh CI probe, where the corpus was emitted moments
 * earlier by this same binary and anything short of a full re-fire
 * means the replay machinery regressed.
 *
 *   ./bench/bench_corpus [--seed N] [--iters N] [--out FILE]
 *                        [--report-dir DIR] [--corpus DIR]
 */
#include <filesystem>

#include "bench_util.h"
#include "corpus/parser.h"
#include "corpus/replay.h"
#include "json.h"

namespace {

using namespace nnsmith;

/** Count of repro files whose serialize->parse->re-serialize round
 *  trip is byte-identical (against the total). */
struct RoundTrip {
    size_t files = 0;
    size_t identical = 0;
};

RoundTrip
auditRoundTrip(const std::string& dir)
{
    RoundTrip out;
    for (const auto& entry : corpus::loadCorpusIndex(dir)) {
        const auto path =
            (std::filesystem::path(dir) / entry.file).string();
        const std::string text = corpus::readCorpusFile(path);
        ++out.files;
        try {
            if (corpus::renderRepro(corpus::parseRepro(text)) == text)
                ++out.identical;
            else
                std::printf("round trip NOT byte-identical: %s\n",
                            entry.file.c_str());
        } catch (const corpus::ParseError& error) {
            std::printf("round trip parse error in %s: %s\n",
                        entry.file.c_str(), error.what());
        }
    }
    return out;
}

void
printReplay(const char* label, const corpus::ReplayResult& replay)
{
    std::printf("%s: %zu repros — %zu still-fire, %zu changed, "
                "%zu fixed, %zu parse errors\n",
                label, replay.total(), replay.stillFires, replay.changed,
                replay.fixed, replay.parseErrors);
    for (const auto& outcome : replay.outcomes) {
        if (outcome.status != corpus::ReplayStatus::kStillFires)
            std::printf("  %-11s %s  %s\n",
                        corpus::replayStatusName(outcome.status).c_str(),
                        outcome.fingerprint.c_str(),
                        outcome.detail.c_str());
    }
}

int
replayOnly(const std::string& dir)
{
    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> backend_list;
    for (auto& backend : owned)
        backend_list.push_back(backend.get());
    corpus::ReplayResult replay;
    try {
        replay = corpus::replayCorpus(dir, backend_list);
    } catch (const corpus::ParseError& error) {
        std::fprintf(stderr, "bench_corpus --corpus: %s\n", error.what());
        return 1;
    }
    corpus::writeRegressions(dir, replay);
    printReplay(dir.c_str(), replay);
    // The probe contract: a corpus emitted by this same binary must
    // re-fire every fingerprint. "fixed" here cannot mean a genuine
    // fix — it means the replay machinery failed to re-fire a known
    // bug — so anything short of all-still-fires fails. (Corpora that
    // legitimately accumulate fixed bugs are the campaign drivers'
    // --corpus territory, which records verdicts without gating.)
    return replay.total() > 0 && replay.stillFires == replay.total() ? 0
                                                                     : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    // The acceptance campaign size: 200 iterations.
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/200);

    if (!options.corpusDir.empty())
        return replayOnly(options.corpusDir);

    const std::filesystem::path base =
        options.reportDir.empty()
            ? std::filesystem::temp_directory_path() / "nnsmith-bench-corpus"
            : std::filesystem::path(options.reportDir);
    const std::string graph_dir = (base / "graph").string();
    const std::string seq_dir = (base / "seq").string();
    const std::string graph_seq_dir = (base / "graphseq").string();
    std::filesystem::remove_all(base);

    // ---- 1. emit the acceptance corpora ------------------------------
    const auto emitted = fuzz::runParallelCampaign(bench::trioCampaign(
        options.seed, options.iters, "tvmlite", graph_dir));
    const auto seq_emitted = fuzz::runParallelCampaign(
        bench::sequenceCampaign(options.seed, options.iters, seq_dir));
    const auto graph_seq_emitted = fuzz::runParallelCampaign(
        bench::graphSequenceCampaign(options.seed, options.iters,
                                     graph_seq_dir));
    const size_t graph_reports = corpus::loadCorpusIndex(graph_dir).size();
    const size_t seq_reports = corpus::loadCorpusIndex(seq_dir).size();
    const size_t graph_seq_reports =
        corpus::loadCorpusIndex(graph_seq_dir).size();
    std::printf("emitted: %zu graph repros (%zu deduped bugs), "
                "%zu sequence repros (%zu deduped bugs), "
                "%zu graph-pass sequence repros (%zu deduped bugs)\n",
                graph_reports, emitted.bugs.size(), seq_reports,
                seq_emitted.bugs.size(), graph_seq_reports,
                graph_seq_emitted.bugs.size());

    // ---- 2. round trip -----------------------------------------------
    const RoundTrip graph_rt = auditRoundTrip(graph_dir);
    const RoundTrip seq_rt = auditRoundTrip(seq_dir);
    const RoundTrip graph_seq_rt = auditRoundTrip(graph_seq_dir);
    std::printf("round trip: graph %zu/%zu byte-identical, "
                "sequence %zu/%zu, graph-pass sequence %zu/%zu\n",
                graph_rt.identical, graph_rt.files, seq_rt.identical,
                seq_rt.files, graph_seq_rt.identical, graph_seq_rt.files);

    // ---- 3. replay ----------------------------------------------------
    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> backend_list;
    for (auto& backend : owned)
        backend_list.push_back(backend.get());
    const auto graph_replay = corpus::replayCorpus(graph_dir, backend_list);
    const auto seq_replay = corpus::replayCorpus(seq_dir, {});
    const auto graph_seq_replay = corpus::replayCorpus(graph_seq_dir, {});
    printReplay("graph corpus replay", graph_replay);
    printReplay("sequence corpus replay", seq_replay);
    printReplay("graph-pass sequence corpus replay", graph_seq_replay);

    // ---- 4. shard invariance with --corpus ---------------------------
    auto regressions_of = [&](int shards) {
        const auto result = fuzz::runParallelCampaign(bench::trioCampaign(
            options.seed, options.iters, "tvmlite", "", graph_dir, shards,
            options.workerMode));
        return std::pair<std::string, size_t>(
            corpus::renderRegressions(result.regressions),
            result.bugs.size());
    };
    const auto one = regressions_of(1);
    const auto two = regressions_of(2);
    const auto four = regressions_of(4);
    const bool shard_identical = one == two && one == four;
    std::printf("regressions.tsv identical across shards {1,2,4}: %s\n",
                shard_identical ? "yes" : "NO — BUG");

    bool all_still_fire = true;
    for (const auto* replay : {&graph_replay, &seq_replay, &graph_seq_replay})
        all_still_fire = all_still_fire && replay->total() > 0 &&
                         replay->stillFires == replay->total();
    const bool roundtrip_ok = graph_rt.identical == graph_rt.files &&
                              seq_rt.identical == seq_rt.files &&
                              graph_seq_rt.identical == graph_seq_rt.files;

    bench::Json json;
    json.beginObject()
        .field("bench", "corpus")
        .field("driver", "bench/bench_corpus --iters " +
                             std::to_string(options.iters) + " --seed " +
                             std::to_string(options.seed));
    for (const auto& [key, replay] :
         {std::pair{"graph_corpus", &graph_replay},
          std::pair{"sequence_corpus", &seq_replay},
          std::pair{"graph_sequence_corpus", &graph_seq_replay}})
        json.key(key)
            .beginObject()
            .field("reports", replay->total())
            .field("still_fires", replay->stillFires)
            .field("changed", replay->changed)
            .field("fixed", replay->fixed)
            .field("parse_errors", replay->parseErrors)
            .endObject();
    json.key("round_trip")
        .beginObject()
        .field("files", graph_rt.files + seq_rt.files + graph_seq_rt.files)
        .field("byte_identical", graph_rt.identical + seq_rt.identical +
                                     graph_seq_rt.identical)
        .endObject();
    json.key("sharded_replay")
        .beginObject()
        .field("regressions_identical_1_2_4", shard_identical)
        .endObject()
        .endObject();
    if (!bench::writeJson(options.outPath, json))
        return 1;
    return all_still_fire && roundtrip_ok && shard_identical ? 0 : 1;
}
