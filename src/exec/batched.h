/**
 * @file
 * Batched graph execution: one graph, B independent input sets
 * ("lanes").
 *
 * A batched fuzz case runs the *same* generated graph on many input
 * sets. What batching saves is generation, value search and export,
 * which the caller pays once per batch. The kernels sweep every lane's
 * tensors either way, so a batched walk would save only per-node
 * dispatch and planning; each lane simply runs the sequential
 * interpreter. Lane l of
 * `executeBatched(graph, lanes)` is therefore `execute(graph,
 * lanes[l])` — values, poison flags and `firstInvalidNode` — by
 * construction, and campaign results merged from batched iterations
 * are byte-identical to sequential ones.
 */
#ifndef NNSMITH_EXEC_BATCHED_H
#define NNSMITH_EXEC_BATCHED_H

#include "exec/interpreter.h"

namespace nnsmith::exec {

/** `execute(graph, lanes[l])` for every lane, in lane order. */
std::vector<ExecResult> executeBatched(const Graph& graph,
                                       const std::vector<LeafValues>& lanes);

} // namespace nnsmith::exec

#endif // NNSMITH_EXEC_BATCHED_H
