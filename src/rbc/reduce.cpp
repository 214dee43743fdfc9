// rbc::Reduce / rbc::Ireduce -- binomial-tree reduction over RBC
// point-to-point operations (commutative operators).
#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {

// Shared with barrier.cpp (reduce half of the barrier chain).
class ReduceSM final : public RequestImpl {
 public:
  ReduceSM(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
           int root, Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), op_(op),
        comm_(std::move(comm)), tag_(tag), tree_(TreeFor(comm_, root)),
        acc_(ByteCount(count, dt)) {
    if (!acc_.empty()) std::memcpy(acc_.data(), send, acc_.size());
    is_root_ = tree_.parent < 0;
    child_bufs_.resize(tree_.children.size());
    child_reqs_.resize(tree_.children.size());
    child_done_.assign(tree_.children.size(), false);
    for (std::size_t i = 0; i < tree_.children.size(); ++i) {
      child_bufs_[i].resize(acc_.size());
      child_reqs_[i] = IrecvInternal(child_bufs_[i].data(), count_, dt_,
                                     tree_.children[i], tag_, comm_);
    }
  }

  bool Test(Status*) override {
    if (done_) return true;
    // Fold every child's contribution as soon as it arrives; the operator
    // application is this state's local work.
    bool all = true;
    for (std::size_t i = 0; i < child_reqs_.size(); ++i) {
      if (child_done_[i]) continue;
      if (child_reqs_[i].Poll()) {
        mpisim::ApplyReduce(op_, dt_, child_bufs_[i].data(), acc_.data(),
                            count_);
        child_done_[i] = true;
      } else {
        all = false;
      }
    }
    if (!all) return false;
    if (!is_root_) {
      SendInternal(acc_.data(), count_, dt_, tree_.parent, tag_, comm_);
    } else if (recv_ != nullptr && !acc_.empty()) {
      std::memcpy(recv_, acc_.data(), acc_.size());
    }
    done_ = true;
    return true;
  }

 private:
  void* recv_;
  int count_;
  Datatype dt_;
  ReduceOp op_;
  Comm comm_;
  int tag_;
  Tree tree_;
  std::vector<std::byte> acc_;
  std::vector<std::vector<std::byte>> child_bufs_;
  std::vector<Request> child_reqs_;
  std::vector<bool> child_done_;
  bool is_root_ = false;
  bool done_ = false;
};

std::shared_ptr<RequestImpl> MakeReduceSM(const void* send, void* recv,
                                          int count, Datatype dt, ReduceOp op,
                                          int root, const Comm& comm,
                                          int tag) {
  return std::make_shared<ReduceSM>(send, recv, count, dt, op, root, comm,
                                    tag);
}

}  // namespace detail

int Reduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
           ReduceOp op, int root, const Comm& comm) {
  detail::ValidateCollective(comm, root, "Reduce");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kReduce, root, kTagReduce,
                             count, mpisim::SizeOf(dt)));
  detail::RunToCompletion(detail::MakeReduceSM(sendbuf, recvbuf, count, dt,
                                               op, root, comm, kTagReduce),
                          "rbc: Reduce");
  return 0;
}

int Ireduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
            ReduceOp op, int root, const Comm& comm, Request* request,
            int tag) {
  detail::ValidateCollective(comm, root, "Ireduce");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Ireduce: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kReduce, root, tag, count,
                              mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(
      detail::MakeReduceSM(sendbuf, recvbuf, count, dt, op, root, comm, tag));
  return 0;
}

}  // namespace rbc
