// Shared internals of the RBC collective state machines.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mpisim/nbc.hpp"  // for the binomial tree topology helper
#include "rbc/p2p.hpp"
#include "rbc/request.hpp"

namespace rbc::detail {

/// Binomial tree in RBC rank space, rooted (by rotation) at `root`.
using Tree = mpisim::detail::BinomialTree;

inline Tree TreeFor(const Comm& comm, int root) {
  return Tree::Compute(comm.Rank(), comm.Size(), root);
}

inline std::size_t ByteCount(int count, Datatype dt) {
  if (count < 0) {
    throw mpisim::UsageError("rbc collective: negative count");
  }
  return static_cast<std::size_t>(count) * mpisim::SizeOf(dt);
}

inline void ValidateCollective(const Comm& comm, int root, const char* op) {
  if (comm.IsNull()) {
    throw mpisim::UsageError(std::string("rbc::") + op +
                             ": null communicator");
  }
  if (comm.Rank() < 0) {
    throw mpisim::UsageError(std::string("rbc::") + op +
                             ": caller not in communicator");
  }
  if (root < 0 || root >= comm.Size()) {
    throw mpisim::UsageError(std::string("rbc::") + op + ": bad root");
  }
}

/// Runs a freshly-built state machine to completion (the blocking form of
/// every RBC collective is its nonblocking form plus Wait, which matches
/// the paper's "implemented with point-to-point communication provided by
/// the RBC library"). `what` names the wait in deadlock reports
/// (mpisim::WaitUntil).
void RunToCompletion(std::shared_ptr<RequestImpl> sm, const char* what);

/// Cross-file state-machine factories (barrier chains reduce + bcast).
std::shared_ptr<RequestImpl> MakeReduceSM(const void* send, void* recv,
                                          int count, Datatype dt, ReduceOp op,
                                          int root, const Comm& comm,
                                          int tag);
std::shared_ptr<RequestImpl> MakeBcastSM(void* buf, int count, Datatype dt,
                                         int root, const Comm& comm, int tag);
/// Bare barrier schedule (up and down share `tag`). Internal consumers
/// (the sparse-exchange fences) use this instead of the public Ibarrier so
/// the sanitizer never sees a schedule's internal fence as a user
/// collective.
std::shared_ptr<RequestImpl> MakeBarrierSM(const Comm& comm, int tag);

}  // namespace rbc::detail
