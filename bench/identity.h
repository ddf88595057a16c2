/**
 * @file
 * The one identity harness of the campaign benches.
 *
 * Two campaigns are *identical* when their fuzz::renderCampaignResult
 * texts are byte-equal and, where a reportDir is set, their report
 * trees hold the same files with the same bytes. IdentityMatrix runs a
 * sequence of campaign cells — typically the worker matrix
 * {thread, process} × shards {1, 2, 4}, times any extra axis a bench
 * adds — times each one, compares it with the first cell and prints
 * one row per cell (plus a MISMATCH line naming the first differing
 * line of the identity text).
 */
#ifndef NNSMITH_BENCH_IDENTITY_H
#define NNSMITH_BENCH_IDENTITY_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/parallel_campaign.h"

namespace nnsmith::bench {

/**
 * renderCampaignResult text of @p result, followed — when
 * @p report_dir is non-empty — by the relative path and raw bytes of
 * every file under it, in sorted path order.
 */
inline std::string
identityText(const fuzz::CampaignResult& result,
             const std::string& report_dir)
{
    std::string text = fuzz::renderCampaignResult(result);
    if (report_dir.empty())
        return text;
    std::vector<std::filesystem::path> files;
    if (std::filesystem::exists(report_dir)) {
        for (const auto& entry :
             std::filesystem::recursive_directory_iterator(report_dir)) {
            if (entry.is_regular_file())
                files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        text += "file " +
                std::filesystem::relative(path, report_dir).string() +
                " " + std::to_string(bytes.str().size()) + "\n" +
                bytes.str() + "\n";
    }
    return text;
}

/** One cell of the worker matrix. */
struct WorkerCell {
    fuzz::WorkerMode mode;
    int shards;
};

/** {thread, process} × shards {1, 2, 4}, thread × 1 first. */
inline std::vector<WorkerCell>
workerMatrix()
{
    std::vector<WorkerCell> cells;
    for (const auto mode :
         {fuzz::WorkerMode::kThread, fuzz::WorkerMode::kProcess})
        for (const int shards : {1, 2, 4})
            cells.push_back({mode, shards});
    return cells;
}

/** Runs campaign cells and checks each against the first. */
class IdentityMatrix {
  public:
    struct Cell {
        fuzz::WorkerMode mode;
        int shards;
        double seconds;  ///< wall time of runParallelCampaign alone
        bool identical;  ///< identity text equals the first cell's
        fuzz::CampaignResult result;
    };

    /**
     * Run @p config as the next cell and print its row, prefixed with
     * @p label (the bench's extra axes, e.g. "sweep=on ").
     */
    const Cell&
    run(const fuzz::ParallelCampaignConfig& config,
        const std::string& label = "")
    {
        const auto start = std::chrono::steady_clock::now();
        auto result = fuzz::runParallelCampaign(config);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        const std::string text =
            identityText(result, config.campaign.reportDir);
        if (cells_.empty())
            reference_ = text;
        const bool identical = text == reference_;
        if (!identical)
            printFirstDifference(text);
        cells_.push_back(Cell{config.workerMode, config.shards,
                              elapsed.count(), identical,
                              std::move(result)});
        const Cell& cell = cells_.back();
        std::printf("%smode=%-7s shards=%d  %.3fs  iters=%zu "
                    "coverage=%zu bugs=%zu  identical=%s\n",
                    label.c_str(), fuzz::workerModeName(cell.mode),
                    cell.shards, cell.seconds, cell.result.iterations,
                    cell.result.coverAll.count(), cell.result.bugs.size(),
                    identical ? "yes" : "NO — BUG");
        return cell;
    }

    const std::vector<Cell>& cells() const { return cells_; }

    /** The first cell's result, which every other cell is held to. */
    const fuzz::CampaignResult& reference() const
    {
        return cells_.front().result;
    }

    bool allIdentical() const
    {
        return std::all_of(cells_.begin(), cells_.end(),
                           [](const Cell& c) { return c.identical; });
    }

  private:
    void printFirstDifference(const std::string& text) const
    {
        std::istringstream a(reference_), b(text);
        std::string line_a, line_b;
        for (size_t line = 1;; ++line) {
            const bool more_a = static_cast<bool>(std::getline(a, line_a));
            const bool more_b = static_cast<bool>(std::getline(b, line_b));
            if (!more_a && !more_b)
                return;
            if (more_a != more_b || line_a != line_b) {
                std::printf("MISMATCH at identity line %zu: '%.120s' "
                            "vs '%.120s'\n",
                            line, more_a ? line_a.c_str() : "<end>",
                            more_b ? line_b.c_str() : "<end>");
                return;
            }
        }
    }

    std::vector<Cell> cells_;
    std::string reference_;
};

} // namespace nnsmith::bench

#endif // NNSMITH_BENCH_IDENTITY_H
