// RBC point-to-point operations (Section V-C, Figure 2 of the paper).
//
// Operations with a specific peer rank translate the RBC rank to the
// underlying MPI rank and forward to MPI. Wildcard (kAnySource)
// operations are where RBC earns its keep: messages of a *different* RBC
// communicator over the same MPI communicator may be queued with the same
// tag, so every wildcard probe and receive hands the range to the
// substrate as a source filter (Comm::Members) and matches the first
// queued message from a member, skipping foreign ones. This guarantees
// that communication on two RBC communicators never interferes as long as
// they overlap in at most one process.
#pragma once

#include "rbc/comm.hpp"
#include "rbc/request.hpp"

namespace rbc {

/// Blocking send to RBC rank `dest`. User tags must be < kReservedTagBase.
int Send(const void* buf, int count, Datatype dt, int dest, int tag,
         const Comm& comm);

/// Blocking receive from RBC rank `src` or kAnySource. The wildcard form
/// receives the first queued message from a member (Section V-C
/// "Receiving").
int Recv(void* buf, int count, Datatype dt, int src, int tag,
         const Comm& comm, Status* st = nullptr);

/// Nonblocking send; `*request` completes once the message is handed to
/// the transport (eager).
int Isend(const void* buf, int count, Datatype dt, int dest, int tag,
          const Comm& comm, Request* request);

/// Nonblocking receive. With kAnySource the returned request completes
/// with the first member message (Section V-C).
int Irecv(void* buf, int count, Datatype dt, int src, int tag,
          const Comm& comm, Request* request);

/// Blocking probe; with kAnySource waits for a member message.
int Probe(int src, int tag, const Comm& comm, Status* st);

/// Nonblocking probe; sets *flag to 1 iff a matching message from a member
/// of this RBC communicator is ready, wherever it is queued. Pending
/// messages from non-members are invisible to it.
int Iprobe(int src, int tag, const Comm& comm, int* flag,
           Status* st = nullptr);

namespace detail {

/// Internal variants used by the RBC collectives: identical semantics but
/// reserved tags allowed. Sources/destinations are RBC ranks.
void SendInternal(const void* buf, int count, Datatype dt, int dest, int tag,
                  const Comm& comm);
void RecvInternal(void* buf, int count, Datatype dt, int src, int tag,
                  const Comm& comm, Status* st = nullptr);
Request IsendInternal(const void* buf, int count, Datatype dt, int dest,
                      int tag, const Comm& comm);
Request IrecvInternal(void* buf, int count, Datatype dt, int src, int tag,
                      const Comm& comm);
bool IprobeInternal(int src, int tag, const Comm& comm, Status* st);
void ProbeInternal(int src, int tag, const Comm& comm, Status* st);

}  // namespace detail

}  // namespace rbc
