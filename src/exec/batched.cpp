#include "exec/batched.h"

namespace nnsmith::exec {

std::vector<ExecResult>
executeBatched(const Graph& graph, const std::vector<LeafValues>& lanes)
{
    std::vector<ExecResult> results;
    results.reserve(lanes.size());
    for (const LeafValues& leaves : lanes)
        results.push_back(execute(graph, leaves));
    return results;
}

} // namespace nnsmith::exec
