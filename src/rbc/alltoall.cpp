// rbc::Alltoall / rbc::Alltoallv -- personalized all-to-all exchange over
// an RBC range (extension beyond Table I, Section V-D construction).
//
// The nonblocking form is a round-based state machine progressed by
// rbc::Test. Round r pairs the caller with one partner:
//  * power-of-two ranges: hypercube pairing, partner = rank XOR r -- every
//    round is a perfect matching of the range;
//  * general ranges: 1-factorization of the complete graph, partner =
//    (r - rank) mod p -- an involution for every p, with at most two fixed
//    points per round (a fixed point is the caller's own block, handled by
//    a local copy before round 0).
// Sends are eager, so a round posts its send, then parks on the matching
// receive -- faster ranks run ahead of slower partners without deadlock.
//
// Large-message regime: with segment_bytes > 0 each per-partner block is
// split into segments of at most segment_bytes payload bytes, and the
// schedule pipelines them *segment-major* the way BcastLarge's
// scatter+ring-allgather pipelines its blocks: the outer loop walks
// segment indices, the inner loop walks the pairing rounds, so segment s
// reaches every partner before segment s+1 starts and no single partner's
// large block serializes the round. Both sides of a pair walk the same
// (segment, round) grid -- the pairing is an involution -- so the
// messages of an ordered rank pair flow in segment order on one tag, and
// per-envelope FIFO order sequences them; back-to-back operations on the
// same tag stay disambiguated the same way. Without segmentation each
// ordered pair exchanges exactly one message (zero-count blocks
// included), message for message the substrate's schedule.
#include <algorithm>
#include <cstring>
#include <utility>

#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

class AlltoallvSM final : public RequestImpl {
 public:
  AlltoallvSM(const void* send, std::span<const int> sendcounts,
              std::span<const int> sdispls, Datatype dt, void* recv,
              std::span<const int> recvcounts, std::span<const int> rdispls,
              Comm comm, int tag, std::int64_t segment_bytes)
      : send_(static_cast<const std::byte*>(send)),
        recv_(static_cast<std::byte*>(recv)),
        sendcounts_(sendcounts.begin(), sendcounts.end()),
        sdispls_(sdispls.begin(), sdispls.end()),
        recvcounts_(recvcounts.begin(), recvcounts.end()),
        rdispls_(rdispls.begin(), rdispls.end()), dt_(dt),
        comm_(std::move(comm)), tag_(tag) {
    const int p = comm_.Size();
    const int rank = comm_.Rank();
    if (static_cast<int>(sendcounts_.size()) != p ||
        static_cast<int>(sdispls_.size()) != p ||
        static_cast<int>(recvcounts_.size()) != p ||
        static_cast<int>(rdispls_.size()) != p) {
      throw mpisim::UsageError(
          "rbc::Alltoallv: count/displacement arrays must have Size() "
          "entries");
    }
    for (int i = 0; i < p; ++i) {
      if (sendcounts_[static_cast<std::size_t>(i)] < 0 ||
          recvcounts_[static_cast<std::size_t>(i)] < 0) {
        throw mpisim::UsageError("rbc::Alltoallv: negative count");
      }
    }
    pow2_ = (p & (p - 1)) == 0;
    const std::size_t esize = mpisim::SizeOf(dt_);
    segment_bytes_ = segment_bytes;
    max_segs_ = 1;
    for (int i = 0; i < p; ++i) {
      if (i == rank) continue;
      const auto ii = static_cast<std::size_t>(i);
      max_segs_ = std::max({max_segs_, SegsOf(sendcounts_[ii]),
                            SegsOf(recvcounts_[ii])});
    }
    // Own block: local copy, no message.
    const std::size_t self =
        static_cast<std::size_t>(sendcounts_[static_cast<std::size_t>(rank)]) *
        esize;
    if (self != 0) {
      std::memcpy(
          recv_ + static_cast<std::size_t>(
                      rdispls_[static_cast<std::size_t>(rank)]) * esize,
          send_ + static_cast<std::size_t>(
                      sdispls_[static_cast<std::size_t>(rank)]) * esize,
          self);
    }
    Advance();
  }

  bool Test(Status*) override {
    if (done_) return true;
    if (!pending_.Poll()) return false;
    Advance();
    return done_;
  }

 private:
  int Partner(int r) const {
    const int p = comm_.Size();
    const int rank = comm_.Rank();
    return pow2_ ? (rank ^ r) : ((r - rank) % p + p) % p;
  }

  /// Wire messages of one block under the segment limit (zero-count
  /// blocks still cost one empty message) -- the substrate's shared
  /// arithmetic, so exchange-layer accounting matches this schedule.
  std::int64_t SegsOf(int count) const {
    return mpisim::AlltoallvSegmentsOf(count, mpisim::SizeOf(dt_),
                                       segment_bytes_);
  }

  /// Element offset and length of segment s within a block of `count`.
  std::pair<std::int64_t, std::int64_t> SegRange(int count,
                                                 std::int64_t s) const {
    return mpisim::AlltoallvSegmentRange(count, mpisim::SizeOf(dt_),
                                         segment_bytes_, s);
  }

  /// Walks the (segment, round) grid to the next receive and parks there;
  /// sends along the way are eager. Segment-major: all rounds of segment
  /// s complete before segment s+1 starts.
  void Advance() {
    const int p = comm_.Size();
    const std::size_t esize = mpisim::SizeOf(dt_);
    while (seg_ < max_segs_) {
      while (round_ < p) {
        const int partner = Partner(round_);
        ++round_;
        if (partner == comm_.Rank()) continue;  // fixed point: own block
        const auto pi = static_cast<std::size_t>(partner);
        const std::int64_t ss = SegsOf(sendcounts_[pi]);
        const std::int64_t rs = SegsOf(recvcounts_[pi]);
        if (seg_ < ss) {
          const auto [at, len] = SegRange(sendcounts_[pi], seg_);
          SendInternal(
              send_ + static_cast<std::size_t>(sdispls_[pi] + at) * esize,
              static_cast<int>(len), dt_, partner, tag_, comm_);
        }
        if (seg_ < rs) {
          const auto [at, len] = SegRange(recvcounts_[pi], seg_);
          pending_ = IrecvInternal(
              recv_ + static_cast<std::size_t>(rdispls_[pi] + at) * esize,
              static_cast<int>(len), dt_, partner, tag_, comm_);
          return;  // park on this slot's receive
        }
      }
      round_ = 0;
      ++seg_;
    }
    done_ = true;
  }

  const std::byte* send_;
  std::byte* recv_;
  std::vector<int> sendcounts_, sdispls_, recvcounts_, rdispls_;
  Datatype dt_;
  Comm comm_;
  int tag_;
  bool pow2_ = false;
  std::int64_t segment_bytes_ = 0;  // 0 = unsegmented
  std::int64_t max_segs_ = 1;  // outer-loop bound over this rank's pairs
  std::int64_t seg_ = 0;
  int round_ = 0;
  Request pending_;
  bool done_ = false;
};

std::shared_ptr<RequestImpl> MakeUniformSM(const void* send, int count,
                                           Datatype dt, void* recv,
                                           const Comm& comm, int tag) {
  if (count < 0) throw mpisim::UsageError("rbc::Alltoall: negative count");
  const int p = comm.Size();
  std::vector<int> counts(static_cast<std::size_t>(p), count);
  std::vector<int> displs(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    displs[static_cast<std::size_t>(i)] = i * count;
  }
  return std::make_shared<AlltoallvSM>(send, counts, displs, dt, recv, counts,
                                       displs, comm, tag,
                                       /*segment_bytes=*/0);
}

}  // namespace
}  // namespace detail

int Alltoall(const void* sendbuf, int count, Datatype dt, void* recvbuf,
             const Comm& comm) {
  detail::ValidateCollective(comm, 0, "Alltoall");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kAlltoall, /*root=*/-1,
                             kTagAlltoall, count, mpisim::SizeOf(dt)));
  detail::RunToCompletion(
      detail::MakeUniformSM(sendbuf, count, dt, recvbuf, comm, kTagAlltoall),
      "rbc: Alltoall");
  return 0;
}

int Ialltoall(const void* sendbuf, int count, Datatype dt, void* recvbuf,
              const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, 0, "Ialltoall");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Ialltoall: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kAlltoall, /*root=*/-1, tag,
                              count, mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(
      detail::MakeUniformSM(sendbuf, count, dt, recvbuf, comm, tag));
  return 0;
}

int Alltoallv(const void* sendbuf, std::span<const int> sendcounts,
              std::span<const int> sdispls, Datatype dt, void* recvbuf,
              std::span<const int> recvcounts, std::span<const int> rdispls,
              const Comm& comm, std::int64_t segment_bytes) {
  detail::ValidateCollective(comm, 0, "Alltoallv");
  auto arec = sanitize::MakeOp(sanitize::CollKind::kAlltoallv, /*root=*/-1,
                               kTagAlltoallv, /*count=*/-1, mpisim::SizeOf(dt),
                               segment_bytes);
  if (sanitize::Enabled()) {
    arec.counts_to = sanitize::ToCounts(sendcounts);
    arec.counts_from = sanitize::ToCounts(recvcounts);
  }
  sanitize::CollectiveScope san(comm, std::move(arec));
  detail::RunToCompletion(
      std::make_shared<detail::AlltoallvSM>(sendbuf, sendcounts, sdispls, dt,
                                            recvbuf, recvcounts, rdispls,
                                            comm, kTagAlltoallv,
                                            segment_bytes),
      "rbc: Alltoallv");
  return 0;
}

int Ialltoallv(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const int> sdispls, Datatype dt, void* recvbuf,
               std::span<const int> recvcounts, std::span<const int> rdispls,
               const Comm& comm, Request* request, int tag,
               std::int64_t segment_bytes) {
  detail::ValidateCollective(comm, 0, "Ialltoallv");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Ialltoallv: null request");
  }
  auto arec = sanitize::MakeOp(sanitize::CollKind::kAlltoallv, /*root=*/-1,
                               tag, /*count=*/-1, mpisim::SizeOf(dt),
                               segment_bytes);
  arec.nonblocking = true;
  if (sanitize::Enabled()) {
    arec.counts_to = sanitize::ToCounts(sendcounts);
    arec.counts_from = sanitize::ToCounts(recvcounts);
  }
  sanitize::CollectiveScope san(comm, std::move(arec));
  *request = Request(std::make_shared<detail::AlltoallvSM>(
      sendbuf, sendcounts, sdispls, dt, recvbuf, recvcounts, rdispls, comm,
      tag, segment_bytes));
  return 0;
}

}  // namespace rbc
