// Point-to-point operations: Send/Recv, Isend/Irecv, Probe/Iprobe,
// Test/Wait/Testall/Waitall, and WaitUntil -- the one poll-until-done loop
// every layer above uses.
//
// The substrate uses an eager protocol: sends buffer the payload into the
// destination mailbox and complete immediately. This mirrors the
// small-message behaviour of real MPIs and keeps the simulated algorithms
// deadlock-free under buffered-send assumptions; the alpha-beta virtual
// clock still charges full single-ported costs on both endpoints.
#pragma once

#include <functional>
#include <span>
#include <string_view>

#include "mpisim/comm.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/request.hpp"
#include "mpisim/status.hpp"

namespace mpisim {

/// Blocking standard send of count elements of dt to `dest` (comm rank).
void Send(const void* buf, int count, Datatype dt, int dest, int tag,
          const Comm& comm);

/// Blocking receive from `src` (comm rank or kAnySource). Throws
/// UsageError if the matched message is longer than the receive buffer.
void Recv(void* buf, int count, Datatype dt, int src, int tag,
          const Comm& comm, Status* st = nullptr);

/// Nonblocking send; completes immediately (eager protocol) but still
/// returns a request for uniform Waitall handling.
Request Isend(const void* buf, int count, Datatype dt, int dest, int tag,
              const Comm& comm);

/// Nonblocking receive; progressed by Test/Wait.
Request Irecv(void* buf, int count, Datatype dt, int src, int tag,
              const Comm& comm);

/// Blocking probe: waits until a message matching (src, tag) is available
/// on `comm` and describes it in `st` without receiving it.
void Probe(int src, int tag, const Comm& comm, Status* st);

/// Nonblocking probe; returns true and fills st if a matching message is
/// pending.
bool Iprobe(int src, int tag, const Comm& comm, Status* st = nullptr);

/// Combined send+receive (MPI_Sendrecv): posts the receive, performs the
/// eager send, then completes the receive -- deadlock-free for pairwise
/// exchanges.
void Sendrecv(const void* sendbuf, int sendcount, Datatype sdt, int dest,
              int sendtag, void* recvbuf, int recvcount, Datatype rdt,
              int src, int recvtag, const Comm& comm, Status* st = nullptr);

/// Tests a request for completion (progresses it).
bool Test(Request& req, Status* st = nullptr);

/// The tree's one wait loop: polls until `poll()` returns true, yielding
/// between polls (ranks are threads, typically more than cores). After a
/// failed first poll the rank registers as blocked in `what` (known=false:
/// a poll may complete without any new message, waitgraph.hpp), throws
/// AbortedError naming the first failed rank once the runtime aborted, and
/// DeadlockError with the per-rank wait graph once the runtime's
/// deadlock_timeout has passed without this rank sending or receiving a
/// message (any traffic of the rank restarts the deadline).
void WaitUntil(const std::function<bool()>& poll, std::string_view what);

/// Blocks (spinning with yields) until the request completes.
void Wait(Request& req, Status* st = nullptr);

/// Tests all requests; true iff every one is complete.
bool Testall(std::span<Request> reqs);

/// Waits for all requests to complete.
void Waitall(std::span<Request> reqs);

namespace detail {

/// Channel-addressed variants used by collectives, communicator
/// construction protocols and RBC. Not part of the public user API. The
/// receive side takes a source filter (`range`, default: every source):
/// a wildcard receive or probe matches the first queued message whose
/// source lies in the range, so RBC's membership filter is part of the
/// match itself rather than a check on whichever message is queued first.
void SendOnChannel(const void* buf, int count, Datatype dt, int dest, int tag,
                   const Comm& comm, Channel ch);
void RecvOnChannel(void* buf, int count, Datatype dt, int src, int tag,
                   const Comm& comm, Channel ch, Status* st = nullptr,
                   const SourceRange& range = {});
Request IsendOnChannel(const void* buf, int count, Datatype dt, int dest,
                       int tag, const Comm& comm, Channel ch);
Request IrecvOnChannel(void* buf, int count, Datatype dt, int src, int tag,
                       const Comm& comm, Channel ch,
                       const SourceRange& range = {});
bool IprobeOnChannel(int src, int tag, const Comm& comm, Channel ch,
                     Status* st, const SourceRange& range = {});
void ProbeOnChannel(int src, int tag, const Comm& comm, Channel ch,
                    Status* st, const SourceRange& range = {});

}  // namespace detail

}  // namespace mpisim
