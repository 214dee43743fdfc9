// rbc::Bcast / rbc::Ibcast -- binomial-tree broadcast over RBC
// point-to-point operations.
#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

class BcastSM final : public RequestImpl {
 public:
  BcastSM(void* buf, int count, Datatype dt, int root, Comm comm, int tag)
      : buf_(buf), count_(count), dt_(dt), comm_(std::move(comm)), tag_(tag),
        tree_(TreeFor(comm_, root)) {
    if (tree_.parent < 0) {
      SendToChildren();
      done_ = true;
    } else {
      // State 1: the receive from the parent is the data dependency.
      pending_ = IrecvInternal(buf_, count_, dt_, tree_.parent, tag_, comm_);
    }
  }

  bool Test(Status*) override {
    if (done_) return true;
    if (!pending_.Poll()) return false;
    // State 2: forward to the subtree, largest child first.
    SendToChildren();
    done_ = true;
    return true;
  }

 private:
  void SendToChildren() {
    for (int i = static_cast<int>(tree_.children.size()) - 1; i >= 0; --i) {
      SendInternal(buf_, count_, dt_, tree_.children[i], tag_, comm_);
    }
  }

  void* buf_;
  int count_;
  Datatype dt_;
  Comm comm_;
  int tag_;
  Tree tree_;
  Request pending_;
  bool done_ = false;
};

}  // namespace

std::shared_ptr<RequestImpl> MakeBcastSM(void* buf, int count, Datatype dt,
                                         int root, const Comm& comm,
                                         int tag) {
  return std::make_shared<BcastSM>(buf, count, dt, root, comm, tag);
}

}  // namespace detail

int Bcast(void* buffer, int count, Datatype dt, int root, const Comm& comm) {
  detail::ValidateCollective(comm, root, "Bcast");
  auto rec = sanitize::MakeOp(sanitize::CollKind::kBcast, root, kTagBcast,
                              count, mpisim::SizeOf(dt));
  const std::size_t bytes = detail::ByteCount(count, dt);
  if (comm.Rank() == root && sanitize::Enabled()) {
    rec.sig = sanitize::PayloadSignature(buffer, bytes);
  }
  sanitize::CollectiveScope san(comm, std::move(rec));
  detail::RunToCompletion(
      detail::MakeBcastSM(buffer, count, dt, root, comm, kTagBcast),
      "rbc: Bcast");
  if (comm.Rank() != root) san.ArmExitSignatureCheck(buffer, bytes);
  return 0;
}

int Ibcast(void* buffer, int count, Datatype dt, int root, const Comm& comm,
           Request* request, int tag) {
  detail::ValidateCollective(comm, root, "Ibcast");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Ibcast: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kBcast, root, tag, count,
                              mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request =
      Request(detail::MakeBcastSM(buffer, count, dt, root, comm, tag));
  return 0;
}

}  // namespace rbc
