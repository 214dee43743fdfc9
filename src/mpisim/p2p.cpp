#include "mpisim/p2p.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "mpisim/runtime.hpp"

namespace mpisim {
namespace {

void ValidateCommon(const Comm& comm, int count, int peer, bool allow_any) {
  if (comm.IsNull()) throw UsageError("p2p: null communicator");
  if (count < 0) throw UsageError("p2p: negative count");
  if (peer == kAnySource && allow_any) return;
  if (peer < 0 || peer >= comm.Size()) {
    throw UsageError("p2p: peer rank out of range");
  }
}

void ValidateCaller(const Comm& comm, const RankContext& rc) {
  if (comm.WorldRank(comm.Rank()) != rc.world_rank) {
    throw UsageError(
        "p2p: communicator handle does not belong to the calling rank");
  }
}

/// Charges the receiver's share of the single-ported message cost: ready at
/// max(own time, sender injection start) + alpha + beta*l. Node-aware: a
/// message whose sender lives on another node of the installed topology is
/// charged the inter-node parameters and counted in the inter_* stats.
void ChargeRecv(RankContext& rc, const Message& m) {
  const bool inter =
      !rc.runtime->SameNode(m.env.source_global, rc.world_rank);
  const double c =
      rc.runtime->options().cost.MessageCost(m.payload.size(), inter);
  rc.clock.Merge(m.timestamp - c);
  rc.clock.Advance(c);
  rc.stats.messages_received += 1;
  rc.stats.bytes_received += m.payload.size();
  if (inter) {
    rc.stats.inter_messages_received += 1;
    rc.stats.inter_bytes_received += m.payload.size();
  }
}

void CopyOut(const Message& m, void* buf, int count, Datatype dt) {
  const std::size_t cap = static_cast<std::size_t>(count) * SizeOf(dt);
  if (m.payload.size() > cap) {
    throw UsageError("Recv: message truncated (payload larger than buffer)");
  }
  if (!m.payload.empty()) std::memcpy(buf, m.payload.data(), m.payload.size());
}

Status StatusOf(const Message& m) {
  return Status{.source = m.env.source, .tag = m.env.tag,
                .bytes = m.payload.size()};
}

/// State machine of a nonblocking receive.
class RecvRequest final : public detail::RequestImpl {
 public:
  RecvRequest(void* buf, int count, Datatype dt, int src, int tag, Comm comm,
              Channel ch, const SourceRange& range)
      : buf_(buf), count_(count), dt_(dt), src_(src), tag_(tag),
        comm_(std::move(comm)), ch_(ch), range_(range) {}

  bool Test(Status* st) override {
    RankContext& rc = Ctx();
    auto m = rc.runtime->MailboxOf(rc.world_rank)
                 .TryPop(comm_.CtxOf(ch_), src_, tag_, range_);
    if (!m) return false;
    CopyOut(*m, buf_, count_, dt_);
    ChargeRecv(rc, *m);
    if (st != nullptr) *st = StatusOf(*m);
    return true;
  }

 private:
  void* buf_;
  int count_;
  Datatype dt_;
  int src_;
  int tag_;
  Comm comm_;
  Channel ch_;
  SourceRange range_;
};

}  // namespace

namespace detail {

void SendOnChannel(const void* buf, int count, Datatype dt, int dest, int tag,
                   const Comm& comm, Channel ch) {
  ValidateCommon(comm, count, dest, /*allow_any=*/false);
  RankContext& rc = Ctx();
  ValidateCaller(comm, rc);
  const std::size_t bytes = static_cast<std::size_t>(count) * SizeOf(dt);
  const int dest_world = comm.WorldRank(dest);
  const bool inter = !rc.runtime->SameNode(rc.world_rank, dest_world);
  rc.clock.Advance(rc.runtime->options().cost.MessageCost(bytes, inter));
  Message m;
  m.env = Envelope{.context = comm.CtxOf(ch), .source = comm.Rank(),
                   .source_global = rc.world_rank, .tag = tag};
  m.payload.resize(bytes);
  if (bytes != 0) std::memcpy(m.payload.data(), buf, bytes);
  m.timestamp = rc.clock.Now();
  rc.stats.messages_sent += 1;
  rc.stats.bytes_sent += bytes;
  if (bytes > rc.stats.max_message_bytes) {
    rc.stats.max_message_bytes = bytes;
  }
  if (inter) {
    rc.stats.inter_messages_sent += 1;
    rc.stats.inter_bytes_sent += bytes;
  }
  rc.runtime->MailboxOf(dest_world).Post(std::move(m));
}

void RecvOnChannel(void* buf, int count, Datatype dt, int src, int tag,
                   const Comm& comm, Channel ch, Status* st,
                   const SourceRange& range) {
  ValidateCommon(comm, count, src, /*allow_any=*/true);
  RankContext& rc = Ctx();
  ValidateCaller(comm, rc);
  Mailbox& mb = rc.runtime->MailboxOf(rc.world_rank);
  const std::uint64_t ctx = comm.CtxOf(ch);
  std::optional<Message> m = mb.TryPop(ctx, src, tag, range);
  if (!m) {
    // Slow path: register as blocked (the wait completes only via this one
    // envelope pattern), then block on the mailbox.
    ScopedWait guard(
        MakeWait("Recv", {{ctx, src, tag, range}}, /*known=*/true));
    try {
      m = mb.PopBlocking(ctx, src, tag,
                         rc.runtime->options().deadlock_timeout, range);
    } catch (const DeadlockError&) {
      throw DeadlockError(BuildDeadlockReport(
          *rc.runtime,
          "mpisim: blocking receive timed out (suspected deadlock)"));
    }
  }
  CopyOut(*m, buf, count, dt);
  ChargeRecv(rc, *m);
  if (st != nullptr) *st = StatusOf(*m);
}

Request IsendOnChannel(const void* buf, int count, Datatype dt, int dest,
                       int tag, const Comm& comm, Channel ch) {
  SendOnChannel(buf, count, dt, dest, tag, comm, ch);
  return Request(std::make_shared<CompletedRequest>());
}

Request IrecvOnChannel(void* buf, int count, Datatype dt, int src, int tag,
                       const Comm& comm, Channel ch,
                       const SourceRange& range) {
  ValidateCommon(comm, count, src, /*allow_any=*/true);
  ValidateCaller(comm, Ctx());
  auto impl = std::make_shared<RecvRequest>(buf, count, dt, src, tag, comm,
                                            ch, range);
  Request req(std::move(impl));
  req.Test();  // eager first progress attempt
  return req;
}

bool IprobeOnChannel(int src, int tag, const Comm& comm, Channel ch,
                     Status* st, const SourceRange& range) {
  ValidateCommon(comm, /*count=*/0, src, /*allow_any=*/true);
  RankContext& rc = Ctx();
  ValidateCaller(comm, rc);
  Envelope env;
  std::size_t bytes = 0;
  if (!rc.runtime->MailboxOf(rc.world_rank)
           .TryPeek(comm.CtxOf(ch), src, tag, &env, &bytes, range)) {
    return false;
  }
  if (st != nullptr) {
    *st = Status{.source = env.source, .tag = env.tag, .bytes = bytes};
  }
  return true;
}

void ProbeOnChannel(int src, int tag, const Comm& comm, Channel ch,
                    Status* st, const SourceRange& range) {
  ValidateCommon(comm, /*count=*/0, src, /*allow_any=*/true);
  RankContext& rc = Ctx();
  ValidateCaller(comm, rc);
  Mailbox& mb = rc.runtime->MailboxOf(rc.world_rank);
  const std::uint64_t ctx = comm.CtxOf(ch);
  Envelope env;
  std::size_t bytes = 0;
  if (!mb.TryPeek(ctx, src, tag, &env, &bytes, range)) {
    ScopedWait guard(
        MakeWait("Probe", {{ctx, src, tag, range}}, /*known=*/true));
    try {
      mb.PeekBlocking(ctx, src, tag, &env, &bytes,
                      rc.runtime->options().deadlock_timeout, range);
    } catch (const DeadlockError&) {
      throw DeadlockError(BuildDeadlockReport(
          *rc.runtime,
          "mpisim: blocking probe timed out (suspected deadlock)"));
    }
  }
  if (st != nullptr) {
    *st = Status{.source = env.source, .tag = env.tag, .bytes = bytes};
  }
}

}  // namespace detail

void Send(const void* buf, int count, Datatype dt, int dest, int tag,
          const Comm& comm) {
  if (tag < 0) throw UsageError("Send: user tags must be non-negative");
  detail::SendOnChannel(buf, count, dt, dest, tag, comm, Channel::kUser);
}

void Recv(void* buf, int count, Datatype dt, int src, int tag,
          const Comm& comm, Status* st) {
  detail::RecvOnChannel(buf, count, dt, src, tag, comm, Channel::kUser, st);
}

Request Isend(const void* buf, int count, Datatype dt, int dest, int tag,
              const Comm& comm) {
  if (tag < 0) throw UsageError("Isend: user tags must be non-negative");
  return detail::IsendOnChannel(buf, count, dt, dest, tag, comm,
                                Channel::kUser);
}

Request Irecv(void* buf, int count, Datatype dt, int src, int tag,
              const Comm& comm) {
  return detail::IrecvOnChannel(buf, count, dt, src, tag, comm,
                                Channel::kUser);
}

void Probe(int src, int tag, const Comm& comm, Status* st) {
  if (comm.IsNull()) throw UsageError("Probe: null communicator");
  detail::ProbeOnChannel(src, tag, comm, Channel::kUser, st);
}

bool Iprobe(int src, int tag, const Comm& comm, Status* st) {
  return detail::IprobeOnChannel(src, tag, comm, Channel::kUser, st);
}

void Sendrecv(const void* sendbuf, int sendcount, Datatype sdt, int dest,
              int sendtag, void* recvbuf, int recvcount, Datatype rdt,
              int src, int recvtag, const Comm& comm, Status* st) {
  Request r = Irecv(recvbuf, recvcount, rdt, src, recvtag, comm);
  Send(sendbuf, sendcount, sdt, dest, sendtag, comm);
  Wait(r, st);
}

bool Test(Request& req, Status* st) { return req.Test(st); }

void WaitUntil(const std::function<bool()>& poll, std::string_view what) {
  if (poll()) return;  // fast path: completed already, no registration
  RankContext& rc = Ctx();
  ScopedWait guard(MakeWait(std::string(what)));
  // The deadline restarts whenever this rank sent or received a message
  // since the last poll: a long wait that keeps moving (a whole sorter
  // phase polled as one wait) is progress, not a deadlock.
  const auto timeout = rc.runtime->options().deadlock_timeout;
  const auto traffic = [&rc] {
    return rc.stats.messages_sent + rc.stats.messages_received;
  };
  std::uint64_t seen = traffic();
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!poll()) {
    if (rc.runtime->Aborted()) {
      throw AbortedError(rc.runtime->FirstFailedRank());
    }
    const auto now = std::chrono::steady_clock::now();
    if (const std::uint64_t t = traffic(); t != seen) {
      seen = t;
      deadline = now + timeout;
    } else if (now > deadline) {
      throw DeadlockError(BuildDeadlockReport(
          *rc.runtime,
          std::string(what) + " timed out (suspected deadlock)"));
    }
    std::this_thread::yield();
  }
}

void Wait(Request& req, Status* st) {
  WaitUntil([&] { return req.Test(st); }, "Wait");
}

bool Testall(std::span<Request> reqs) {
  bool all = true;
  for (Request& r : reqs) all = r.Test(nullptr) && all;
  return all;
}

void Waitall(std::span<Request> reqs) {
  WaitUntil([&] { return Testall(reqs); }, "Waitall");
}

}  // namespace mpisim
