// rbc::Scan / rbc::Iscan -- inclusive prefix reduction with
// distance-doubling (Hillis-Steele) rounds over RBC point-to-point
// operations. O(alpha log p + beta l log p).
#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

class ScanSM final : public RequestImpl {
 public:
  ScanSM(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
         Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), op_(op), comm_(std::move(comm)),
        tag_(tag), partial_(ByteCount(count, dt)),
        incoming_(partial_.size()) {
    if (!partial_.empty()) std::memcpy(partial_.data(), send, partial_.size());
    AdvanceRounds();
  }

  bool Test(Status*) override {
    if (done_) return true;
    if (!pending_.Poll()) return false;
    // `incoming_` is the fold over ranks < rank: the left operand.
    mpisim::ApplyReduce(op_, dt_, partial_.data(), incoming_.data(), count_);
    partial_.swap(incoming_);
    d_ <<= 1;
    AdvanceRounds();
    return done_;
  }

 private:
  void AdvanceRounds() {
    const int p = comm_.Size();
    const int rank = comm_.Rank();
    while (d_ < p) {
      // Send the pre-round partial before merging this round's input.
      if (rank + d_ < p) {
        SendInternal(partial_.data(), count_, dt_, rank + d_, tag_, comm_);
      }
      if (rank - d_ >= 0) {
        pending_ =
            IrecvInternal(incoming_.data(), count_, dt_, rank - d_, tag_,
                          comm_);
        return;  // this round's data dependency
      }
      d_ <<= 1;
    }
    if (!partial_.empty()) {
      std::memcpy(recv_, partial_.data(), partial_.size());
    }
    done_ = true;
  }

  void* recv_;
  int count_;
  Datatype dt_;
  ReduceOp op_;
  Comm comm_;
  int tag_;
  std::vector<std::byte> partial_;
  std::vector<std::byte> incoming_;
  Request pending_;
  int d_ = 1;
  bool done_ = false;
};

}  // namespace
}  // namespace detail

int Scan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
         ReduceOp op, const Comm& comm) {
  detail::ValidateCollective(comm, 0, "Scan");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kScan, /*root=*/-1, kTagScan,
                             count, mpisim::SizeOf(dt)));
  detail::RunToCompletion(std::make_shared<detail::ScanSM>(
                              sendbuf, recvbuf, count, dt, op, comm,
                              kTagScan),
                          "rbc: Scan");
  return 0;
}

int Iscan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
          ReduceOp op, const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, 0, "Iscan");
  if (request == nullptr) throw mpisim::UsageError("rbc::Iscan: null request");
  auto rec = sanitize::MakeOp(sanitize::CollKind::kScan, /*root=*/-1, tag,
                              count, mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(std::make_shared<detail::ScanSM>(sendbuf, recvbuf, count,
                                                      dt, op, comm, tag));
  return 0;
}

}  // namespace rbc
