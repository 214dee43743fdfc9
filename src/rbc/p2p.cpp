#include "rbc/p2p.hpp"

#include <string>

#include "rbc/tags.hpp"

namespace rbc {

using mpisim::UsageError;

namespace detail {
namespace {

void ValidateMember(const Comm& comm, const char* op) {
  if (comm.IsNull()) {
    throw UsageError(std::string("rbc::") + op + ": null communicator");
  }
  if (comm.Rank() < 0) {
    throw UsageError(std::string("rbc::") + op +
                     ": calling process is not in the RBC communicator");
  }
}

/// Translates an MPI-comm-rank status into RBC rank space.
Status Translate(const Comm& comm, const Status& st) {
  Status out = st;
  out.source = comm.FromMpi(st.source);
  return out;
}

constexpr mpisim::Channel kCh = mpisim::Channel::kUser;

/// MPI peer of an RBC peer rank; the wildcard passes through.
int MpiPeer(const Comm& comm, int rbc_rank) {
  return rbc_rank == kAnySource ? mpisim::kAnySource : comm.ToMpi(rbc_rank);
}

/// Wraps an MPI point-to-point request and translates its completion
/// status into RBC rank space.
class TranslatedRequest final : public RequestImpl {
 public:
  TranslatedRequest(mpisim::Request inner, Comm comm)
      : inner_(std::move(inner)), comm_(std::move(comm)) {}

  bool Test(Status* st) override {
    Status raw;
    if (!inner_.Test(&raw)) return false;
    if (st != nullptr) *st = Translate(comm_, raw);
    return true;
  }

 private:
  mpisim::Request inner_;
  Comm comm_;
};

}  // namespace

// Every operation runs on the MPI communicator's user channel. Wildcard
// forms pass the range as the match's source filter (Comm::Members), so
// the substrate itself skips queued messages of non-members.

void SendInternal(const void* buf, int count, Datatype dt, int dest, int tag,
                  const Comm& comm) {
  ValidateMember(comm, "Send");
  mpisim::Send(buf, count, dt, comm.ToMpi(dest), tag, comm.Mpi());
}

void RecvInternal(void* buf, int count, Datatype dt, int src, int tag,
                  const Comm& comm, Status* st) {
  ValidateMember(comm, "Recv");
  Status raw;
  mpisim::detail::RecvOnChannel(buf, count, dt, MpiPeer(comm, src), tag,
                                comm.Mpi(), kCh, &raw, comm.Members());
  if (st != nullptr) *st = Translate(comm, raw);
}

Request IsendInternal(const void* buf, int count, Datatype dt, int dest,
                      int tag, const Comm& comm) {
  ValidateMember(comm, "Isend");
  mpisim::Request inner =
      mpisim::Isend(buf, count, dt, comm.ToMpi(dest), tag, comm.Mpi());
  return Request(std::make_shared<TranslatedRequest>(std::move(inner), comm));
}

Request IrecvInternal(void* buf, int count, Datatype dt, int src, int tag,
                      const Comm& comm) {
  ValidateMember(comm, "Irecv");
  mpisim::Request inner = mpisim::detail::IrecvOnChannel(
      buf, count, dt, MpiPeer(comm, src), tag, comm.Mpi(), kCh,
      comm.Members());
  return Request(std::make_shared<TranslatedRequest>(std::move(inner), comm));
}

bool IprobeInternal(int src, int tag, const Comm& comm, Status* st) {
  ValidateMember(comm, "Iprobe");
  Status raw;
  if (!mpisim::detail::IprobeOnChannel(MpiPeer(comm, src), tag, comm.Mpi(),
                                       kCh, &raw, comm.Members())) {
    return false;
  }
  if (st != nullptr) *st = Translate(comm, raw);
  return true;
}

void ProbeInternal(int src, int tag, const Comm& comm, Status* st) {
  ValidateMember(comm, "Probe");
  Status raw;
  mpisim::detail::ProbeOnChannel(MpiPeer(comm, src), tag, comm.Mpi(), kCh,
                                 &raw, comm.Members());
  if (st != nullptr) *st = Translate(comm, raw);
}

}  // namespace detail

namespace {

void ValidateUserTag(int tag, const char* op) {
  if (tag < 0 || tag >= kReservedTagBase) {
    throw UsageError(std::string("rbc::") + op +
                     ": user tags must be in [0, kReservedTagBase)");
  }
}

}  // namespace

int Send(const void* buf, int count, Datatype dt, int dest, int tag,
         const Comm& comm) {
  ValidateUserTag(tag, "Send");
  detail::SendInternal(buf, count, dt, dest, tag, comm);
  return 0;
}

int Recv(void* buf, int count, Datatype dt, int src, int tag,
         const Comm& comm, Status* st) {
  ValidateUserTag(tag, "Recv");
  detail::RecvInternal(buf, count, dt, src, tag, comm, st);
  return 0;
}

int Isend(const void* buf, int count, Datatype dt, int dest, int tag,
          const Comm& comm, Request* request) {
  ValidateUserTag(tag, "Isend");
  if (request == nullptr) throw UsageError("rbc::Isend: null request");
  *request = detail::IsendInternal(buf, count, dt, dest, tag, comm);
  return 0;
}

int Irecv(void* buf, int count, Datatype dt, int src, int tag,
          const Comm& comm, Request* request) {
  ValidateUserTag(tag, "Irecv");
  if (request == nullptr) throw UsageError("rbc::Irecv: null request");
  *request = detail::IrecvInternal(buf, count, dt, src, tag, comm);
  return 0;
}

int Probe(int src, int tag, const Comm& comm, Status* st) {
  ValidateUserTag(tag, "Probe");
  detail::ProbeInternal(src, tag, comm, st);
  return 0;
}

int Iprobe(int src, int tag, const Comm& comm, int* flag, Status* st) {
  ValidateUserTag(tag, "Iprobe");
  const bool found = detail::IprobeInternal(src, tag, comm, st);
  if (flag != nullptr) *flag = found ? 1 : 0;
  return 0;
}

}  // namespace rbc
