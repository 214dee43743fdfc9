// Extension collectives beyond Table I (Section V-D: "easy to extend"):
// Allreduce, Allgather, Exscan, Scatter -- chained / inverted forms of the
// core state machines, plus their nonblocking variants.
#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

/// Chains two sub-state-machines sequentially: `second` is constructed by
/// a factory once `first` completes (the classic NBC chaining pattern).
class ChainSM final : public RequestImpl {
 public:
  using Factory = std::function<std::shared_ptr<RequestImpl>()>;

  ChainSM(std::shared_ptr<RequestImpl> first, Factory make_second)
      : first_(std::move(first)), make_second_(std::move(make_second)) {}

  bool Test(Status* st) override {
    if (second_ == nullptr) {
      Status tmp;
      if (!first_->Progress(&tmp)) return false;
      second_ = make_second_();
    }
    return second_->Progress(st);
  }

 private:
  std::shared_ptr<RequestImpl> first_;
  Factory make_second_;
  std::shared_ptr<RequestImpl> second_;
};

/// Allreduce = reduce-to-0 then broadcast, on one tag (the two phases move
/// in opposite directions between any pair of ranks).
std::shared_ptr<RequestImpl> MakeAllreduceSM(const void* send, void* recv,
                                             int count, Datatype dt,
                                             ReduceOp op, const Comm& comm,
                                             int tag) {
  auto reduce = MakeReduceSM(send, recv, count, dt, op, 0, comm, tag);
  return std::make_shared<ChainSM>(
      std::move(reduce), [recv, count, dt, comm, tag] {
        return MakeBcastSM(recv, count, dt, 0, comm, tag);
      });
}

/// Exclusive scan: inclusive scan into a scratch buffer, then every rank
/// ships its inclusive prefix one rank to the right. Rank 0 zero-fills.
class ExscanSM final : public RequestImpl {
 public:
  ExscanSM(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
           Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), comm_(std::move(comm)),
        tag_(tag), incl_(ByteCount(count, dt)) {
    rbc::Request scan_req;
    rbc::Iscan(send, incl_.data(), count, dt, op, comm_, &scan_req, tag_);
    scan_ = std::move(scan_req);
  }

  bool Test(Status*) override {
    if (done_) return true;
    if (!shifted_) {
      if (!scan_.Poll()) return false;
      const int rank = comm_.Rank();
      if (rank + 1 < comm_.Size()) {
        SendInternal(incl_.data(), count_, dt_, rank + 1, tag_ + 1, comm_);
      }
      if (rank > 0) {
        pending_ = IrecvInternal(recv_, count_, dt_, rank - 1, tag_ + 1,
                                 comm_);
      } else {
        std::memset(recv_, 0, incl_.size());
      }
      shifted_ = true;
    }
    if (comm_.Rank() > 0 && !pending_.Poll()) return false;
    done_ = true;
    return true;
  }

 private:
  void* recv_;
  int count_;
  Datatype dt_;
  Comm comm_;
  int tag_;
  std::vector<std::byte> incl_;
  Request scan_;
  Request pending_;
  bool shifted_ = false;
  bool done_ = false;
};

/// Binomial-tree scatter (inverse of Gather): each node receives its
/// subtree's blocks from its parent and forwards the children's shares.
class ScatterSM final : public RequestImpl {
 public:
  ScatterSM(const void* send, int count, Datatype dt, void* recv, int root,
            Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), root_(root),
        comm_(std::move(comm)), tag_(tag), tree_(TreeFor(comm_, root)) {
    extent_ = 1;
    for (int e : tree_.child_extents) extent_ += e;
    const std::size_t block = ByteCount(count, dt);
    buf_.resize(static_cast<std::size_t>(extent_) * block);
    if (tree_.parent < 0) {
      // Root: rotate absolute-rank blocks into relative order.
      const int p = comm_.Size();
      const auto* in = static_cast<const std::byte*>(send);
      for (int rel = 0; rel < p; ++rel) {
        const int abs = (rel + root_) % p;
        if (block != 0) {
          std::memcpy(buf_.data() + static_cast<std::size_t>(rel) * block,
                      in + static_cast<std::size_t>(abs) * block, block);
        }
      }
      Forward();
      done_ = true;
    } else {
      pending_ = IrecvInternal(buf_.data(), extent_ * count_, dt_,
                               tree_.parent, tag_, comm_);
    }
  }

  bool Test(Status*) override {
    if (done_) return true;
    if (!pending_.Poll()) return false;
    Forward();
    done_ = true;
    return true;
  }

 private:
  void Forward() {
    const std::size_t block = ByteCount(count_, dt_);
    // The i-th child's subtree starts at relative offset 1 << i.
    for (int i = static_cast<int>(tree_.children.size()) - 1; i >= 0; --i) {
      const std::size_t off = (std::size_t{1} << i) * block;
      SendInternal(buf_.data() + off, tree_.child_extents[i] * count_, dt_,
                   tree_.children[i], tag_, comm_);
    }
    if (block != 0) std::memcpy(recv_, buf_.data(), block);
  }

  void* recv_;
  int count_;
  Datatype dt_;
  int root_;
  Comm comm_;
  int tag_;
  Tree tree_;
  int extent_ = 1;
  std::vector<std::byte> buf_;
  Request pending_;
  bool done_ = false;
};

}  // namespace
}  // namespace detail

int Allreduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
              ReduceOp op, const Comm& comm) {
  detail::ValidateCollective(comm, 0, "Allreduce");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kAllreduce, /*root=*/-1,
                             kTagAllreduce, count, mpisim::SizeOf(dt)));
  detail::RunToCompletion(
      detail::MakeAllreduceSM(sendbuf, recvbuf, count, dt, op, comm,
                              kTagAllreduce),
      "rbc: Allreduce");
  return 0;
}

int Iallreduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
               ReduceOp op, const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, 0, "Iallreduce");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Iallreduce: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kAllreduce, /*root=*/-1,
                              tag, count, mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(
      detail::MakeAllreduceSM(sendbuf, recvbuf, count, dt, op, comm, tag));
  return 0;
}

int Allgather(const void* sendbuf, int count, Datatype dt, void* recvbuf,
              const Comm& comm) {
  detail::ValidateCollective(comm, 0, "Allgather");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kAllgather, /*root=*/-1,
                             kTagAllgather, count, mpisim::SizeOf(dt)));
  // The inner Iallgather (and its Igather) record nothing: the per-rank
  // depth guard keeps composite collectives to one outermost record.
  Request req;
  Iallgather(sendbuf, count, dt, recvbuf, comm, &req, kTagAllgather);
  Wait(&req);
  return 0;
}

int Iallgather(const void* sendbuf, int count, Datatype dt, void* recvbuf,
               const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, 0, "Iallgather");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Iallgather: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kAllgather, /*root=*/-1,
                              tag, count, mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  // Gather to 0, then broadcast the assembled buffer.
  rbc::Request gather_req;
  Igather(sendbuf, count, dt, recvbuf, 0, comm, &gather_req, tag);
  struct Wrap final : public detail::RequestImpl {
    Wrap(Request g, void* recv, int total, Datatype dt, Comm comm, int tag)
        : gather(std::move(g)), recv(recv), total(total), dt(dt),
          comm(std::move(comm)), tag(tag) {}
    bool Test(Status* st) override {
      if (bcast == nullptr) {
        if (!gather.Poll()) return false;
        bcast = detail::MakeBcastSM(recv, total, dt, 0, comm, tag);
      }
      return bcast->Progress(st);
    }
    Request gather;
    void* recv;
    int total;
    Datatype dt;
    Comm comm;
    int tag;
    std::shared_ptr<detail::RequestImpl> bcast;
  };
  *request = Request(std::make_shared<Wrap>(std::move(gather_req), recvbuf,
                                            count * comm.Size(), dt, comm,
                                            tag));
  return 0;
}

int Exscan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
           ReduceOp op, const Comm& comm) {
  detail::ValidateCollective(comm, 0, "Exscan");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kExscan, /*root=*/-1,
                             kTagExscan, count, mpisim::SizeOf(dt)));
  detail::RunToCompletion(
      std::make_shared<detail::ExscanSM>(sendbuf, recvbuf, count, dt, op,
                                         comm, kTagExscan),
      "rbc: Exscan");
  return 0;
}

int Iexscan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
            ReduceOp op, const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, 0, "Iexscan");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Iexscan: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kExscan, /*root=*/-1, tag,
                              count, mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(std::make_shared<detail::ExscanSM>(
      sendbuf, recvbuf, count, dt, op, comm, tag));
  return 0;
}

int Scatter(const void* sendbuf, int count, Datatype dt, void* recvbuf,
            int root, const Comm& comm) {
  detail::ValidateCollective(comm, root, "Scatter");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kScatter, root, kTagScatter,
                             count, mpisim::SizeOf(dt)));
  detail::RunToCompletion(
      std::make_shared<detail::ScatterSM>(sendbuf, count, dt, recvbuf, root,
                                          comm, kTagScatter),
      "rbc: Scatter");
  return 0;
}

int Iscatter(const void* sendbuf, int count, Datatype dt, void* recvbuf,
             int root, const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, root, "Iscatter");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Iscatter: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kScatter, root, tag, count,
                              mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(std::make_shared<detail::ScatterSM>(
      sendbuf, count, dt, recvbuf, root, comm, tag));
  return 0;
}

}  // namespace rbc
