/**
 * @file
 * Gradient-guided value search (paper §3.3, Algorithm 3).
 *
 * Finds model inputs and weights under which *no* operator in the
 * graph produces a NaN/Inf. Three methods are provided, matching
 * Fig. 11's ablation:
 *   kSampling       — re-draw random values until valid;
 *   kGradient       — Algorithm 3 with plain derivatives;
 *   kGradientProxy  — Algorithm 3 with proxy derivatives (full method).
 */
#ifndef NNSMITH_AUTODIFF_GRAD_SEARCH_H
#define NNSMITH_AUTODIFF_GRAD_SEARCH_H

#include <limits>

#include "autodiff/adam.h"
#include "autodiff/backward.h"
#include "autodiff/losses.h"
#include "exec/interpreter.h"
#include "graph/graph.h"
#include "support/rng.h"

namespace nnsmith::autodiff {

/** Value-search strategies (Fig. 11). */
enum class SearchMethod {
    kSampling,
    kGradient,
    kGradientProxy,
};

/** Human-readable method name for reports. */
std::string searchMethodName(SearchMethod method);

/** Search configuration. */
struct SearchConfig {
    SearchMethod method = SearchMethod::kGradientProxy;
    /** Wall-clock bound; unbounded by default, so results depend on
     *  the seed alone (Fig. 11 sweeps i*8ms, i in [1,8]). */
    double timeBudgetMs = std::numeric_limits<double>::infinity();
    int maxIterations = 256;      ///< hard cap independent of wall time
    double initLo = 1.0;          ///< Sampling draws from [1, 9) (§5.3)
    double initHi = 9.0;
};

/** Search outcome. */
struct SearchResult {
    bool success = false;
    exec::LeafValues values;  ///< valid leaves when success
    int iterations = 0;
    double elapsedMs = 0.0;
    std::string lastPredicate; ///< last loss used (diagnostics)
};

/**
 * Run the value search on a concrete graph. On success the returned
 * leaves make every intermediate numerically valid.
 */
SearchResult search(const graph::Graph& graph, Rng& rng,
                    const SearchConfig& config = SearchConfig());

} // namespace nnsmith::autodiff

#endif // NNSMITH_AUTODIFF_GRAD_SEARCH_H
