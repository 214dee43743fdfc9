// rbc::Barrier / rbc::Ibarrier -- binomial reduce of an empty token to
// rank 0 chained with a broadcast back. The two halves can share one tag:
// within each pair of ranks the reduce message and the bcast message
// travel in opposite directions, so envelopes never collide.
#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

class BarrierSM final : public RequestImpl {
 public:
  BarrierSM(Comm comm, int up_tag, int down_tag)
      : comm_(std::move(comm)), down_tag_(down_tag) {
    reduce_ = MakeReduceSM(&token_, &token_, 1, Datatype::kByte,
                           ReduceOp::kBor, 0, comm_, up_tag);
  }

  bool Test(Status* st) override {
    if (done_) return true;
    if (bcast_ == nullptr) {
      Status tmp;
      if (!reduce_->Progress(&tmp)) return false;
      bcast_ = MakeBcastSM(&token_, 1, Datatype::kByte, 0, comm_, down_tag_);
    }
    if (!bcast_->Progress(st)) return false;
    done_ = true;
    return true;
  }

 private:
  Comm comm_;
  int down_tag_;
  std::uint8_t token_ = 0;
  std::shared_ptr<RequestImpl> reduce_;
  std::shared_ptr<RequestImpl> bcast_;
  bool done_ = false;
};

}  // namespace

std::shared_ptr<RequestImpl> MakeBarrierSM(const Comm& comm, int tag) {
  return std::make_shared<BarrierSM>(comm, tag, tag);
}

}  // namespace detail

int Barrier(const Comm& comm) {
  detail::ValidateCollective(comm, 0, "Barrier");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kBarrier, /*root=*/-1,
                             kTagBarrierUp));
  detail::RunToCompletion(
      std::make_shared<detail::BarrierSM>(comm, kTagBarrierUp,
                                          kTagBarrierDown),
      "rbc: Barrier");
  return 0;
}

int Ibarrier(const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, 0, "Ibarrier");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Ibarrier: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kBarrier, /*root=*/-1, tag);
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(std::make_shared<detail::BarrierSM>(comm, tag, tag));
  return 0;
}

}  // namespace rbc
