// Shared vocabulary of the query subsystem (jsort::query).
//
// Queries are the workload the paper's O(1) communicator splits pay off
// most for: small, latency-sensitive requests that want an *answer*
// (top-k, an order statistic, a percentile) rather than a globally
// sorted array. Every kernel here runs over the jsort::Transport
// abstraction, so the rbc / mpi / icomm split backends are one axis, and
// every kernel is deterministic in (data, config) alone -- backends
// produce bit-identical answers.
#pragma once

#include "sort/transport.hpp"

namespace jsort::query {

/// Logical tags of the query collectives. Disjoint from the sorters'
/// working tags and the service's verification tags (7050/7051); within
/// one group the query kernels run their collectives strictly
/// sequentially, so one small block per kernel suffices.
inline constexpr int kSelectTagBase = 7100;
inline constexpr int kTopKTagBase = 7110;
inline constexpr int kQuantileTagBase = 7120;
inline constexpr int kQueryVerifyTagBase = 7130;

/// Blocking allreduce over a Transport, composed from the two collectives
/// every backend provides: Ireduce to group rank 0 on `tag`, then Ibcast
/// of the result on `tag + 1`. `in` and `out` must not alias.
inline void Allreduce(Transport& tr, const void* in, void* out, int count,
                      Datatype dt, ReduceOp op, int tag) {
  mpisim::WaitUntil(tr.Ireduce(in, out, count, dt, op, 0, tag),
                    "jsort::query: allreduce reduce");
  mpisim::WaitUntil(tr.Ibcast(out, count, dt, 0, tag + 1),
                    "jsort::query: allreduce bcast");
}

}  // namespace jsort::query
