/**
 * @file
 * The shared delta-debugging (ddmin) core of the reduction subsystem.
 *
 * Both reducers — GraphReducer over computation-graph nodes and
 * PassSequenceReducer over TIR pass lists (reduce/reducer.h) — are the
 * same algorithm applied to different item domains: Zeller &
 * Hildebrandt's ddmin over the index set {0..n-1}, where the
 * caller-supplied predicate answers "does keeping exactly these items
 * still reproduce the flagged defect fingerprint?". The core is fully
 * deterministic (no RNG, no wall clock), which is what lets the
 * campaign layer minimize flagged cases inside sharded workers while
 * keeping merged results byte-identical for any shard count (see
 * DESIGN.md "Reduction & reporting").
 */
#ifndef NNSMITH_REDUCE_DDMIN_H
#define NNSMITH_REDUCE_DDMIN_H

#include <cstddef>
#include <functional>
#include <vector>

namespace nnsmith::reduce {

/**
 * Predicate over a candidate kept-item set, given as sorted ascending
 * indices into the original item list. Must be deterministic: ddmin
 * may evaluate the same subset twice across granularity changes.
 */
using KeepPredicate = std::function<bool(const std::vector<size_t>&)>;

/** Bookkeeping of one ddmin run (bench + test instrumentation). */
struct DdminStats {
    size_t testsRun = 0;      ///< predicate evaluations performed
    size_t originalSize = 0;  ///< n
    size_t minimizedSize = 0; ///< size of the returned subset
    bool budgetExhausted = false; ///< stopped early on maxTests
};

/**
 * Minimize {0..n-1} under @p still_fails: returns a subset (sorted
 * ascending) on which the predicate holds and from which no single
 * ddmin chunk can be removed (1-minimal at the final granularity).
 *
 * Preconditions: still_fails({0..n-1}) must be true — the caller
 * checks that the full set reproduces the defect before reducing
 * (reduce::minimizeBugs does). The empty set is never tested.
 *
 * @param max_tests stop after this many predicate evaluations and
 *        return the best subset found so far (0 = unlimited). The cut
 *        is by evaluation count, not time, so it is deterministic.
 */
std::vector<size_t> ddmin(size_t n, const KeepPredicate& still_fails,
                          DdminStats* stats = nullptr,
                          size_t max_tests = 0);

} // namespace nnsmith::reduce

#endif // NNSMITH_REDUCE_DDMIN_H
