// rbc::SparseAlltoallv / IsparseAlltoallv: sparse destination sets, empty
// senders, all-to-one skew, self blocks, source ordering, back-to-back
// operations on one tag (the second-barrier fence), sub-ranges, and the
// message budget (no dense counts round).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "testutil.hpp"

namespace {

using rbc::Datatype;
using rbc::SparseRecvMessage;
using rbc::SparseSendBlock;
using testutil::RunRbc;

/// Payload rank i sends to rank j in round `r`.
std::vector<double> PayloadOf(int i, int j, int r) {
  return {i * 100.0 + j + r * 1.0e4, i * 100.0 + j + r * 1.0e4 + 0.5};
}

std::vector<double> AsDoubles(const std::vector<std::byte>& bytes) {
  std::vector<double> v(bytes.size() / sizeof(double));
  std::memcpy(v.data(), bytes.data(), v.size() * sizeof(double));
  return v;
}

TEST(RbcSparse, NeighbourRotationDeliversAndOrdersBySource) {
  constexpr int kP = 8;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    // Rank i sends to i+1 and i+2 (mod p): every rank receives from two
    // known sources, but the collective must discover them by probing.
    std::vector<std::vector<double>> payloads;
    std::vector<SparseSendBlock> sends;
    for (int d : {(me + 1) % kP, (me + 2) % kP}) {
      payloads.push_back(PayloadOf(me, d, 0));
      sends.push_back(SparseSendBlock{
          d, payloads.back().data(),
          static_cast<int>(payloads.back().size())});
    }
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    ASSERT_EQ(got.size(), 2u);
    const int s0 = (me + kP - 2) % kP, s1 = (me + kP - 1) % kP;
    const int lo = std::min(s0, s1), hi = std::max(s0, s1);
    EXPECT_EQ(got[0].source, lo);
    EXPECT_EQ(got[1].source, hi);
    EXPECT_EQ(AsDoubles(got[0].bytes), PayloadOf(lo, me, 0));
    EXPECT_EQ(AsDoubles(got[1].bytes), PayloadOf(hi, me, 0));
  });
}

TEST(RbcSparse, AllToOneWithEmptySendersTerminates) {
  constexpr int kP = 9;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    // Odd ranks send to rank 0; even ranks (and 0 itself) send nothing.
    std::vector<double> payload = PayloadOf(me, 0, 0);
    std::vector<SparseSendBlock> sends;
    if (me % 2 == 1) {
      sends.push_back(SparseSendBlock{
          0, payload.data(), static_cast<int>(payload.size())});
    }
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    if (me == 0) {
      ASSERT_EQ(got.size(), 4u);
      for (std::size_t i = 0; i < got.size(); ++i) {
        const int src = 2 * static_cast<int>(i) + 1;
        EXPECT_EQ(got[i].source, src);
        EXPECT_EQ(AsDoubles(got[i].bytes), PayloadOf(src, 0, 0));
      }
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(RbcSparse, SelfBlockDeliversLocally) {
  RunRbc(3, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    std::vector<double> payload = PayloadOf(me, me, 0);
    std::vector<SparseSendBlock> sends{SparseSendBlock{
        me, payload.data(), static_cast<int>(payload.size())}};
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].source, me);
    EXPECT_EQ(AsDoubles(got[0].bytes), payload);
  });
}

TEST(RbcSparse, BackToBackOnOneTagDoesNotLeak) {
  // The second barrier fences round r from round r+1: a fast rank's
  // round-1 sends must never be drained into a slow rank's round-0
  // result, even on the identical tag.
  constexpr int kP = 6;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    for (int round = 0; round < 3; ++round) {
      const int dest = (me + 1 + round) % kP;
      const int src = (me + kP - 1 - round) % kP;
      std::vector<double> payload = PayloadOf(me, dest, round);
      std::vector<SparseSendBlock> sends{SparseSendBlock{
          dest, payload.data(), static_cast<int>(payload.size())}};
      std::vector<SparseRecvMessage> got;
      rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
      ASSERT_EQ(got.size(), 1u) << "round " << round;
      EXPECT_EQ(got[0].source, src);
      EXPECT_EQ(AsDoubles(got[0].bytes), PayloadOf(src, me, round));
    }
  });
}

TEST(RbcSparse, BackToBackSegmentedOnOneTagOrdersTrailingChunks) {
  // Regression: the two-barrier fence must order *trailing payload
  // chunks* across back-to-back segmented exchanges on one tag, not just
  // first chunks -- a fast rank's round-r+1 chunk sequence must never be
  // stitched into a slow rank's round-r payload. Payloads of 24 doubles
  // under a 64-byte segment limit ship as 4 chunks each (56 payload bytes
  // per chunk), so every round has trailing traffic to steal.
  constexpr int kP = 6;
  constexpr int kCount = 24;
  constexpr std::int64_t kSeg = 64;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    for (int round = 0; round < 3; ++round) {
      const int dest = (me + 1 + round) % kP;
      const int src = (me + kP - 1 - round) % kP;
      std::vector<double> payload(kCount);
      for (int i = 0; i < kCount; ++i) {
        payload[static_cast<std::size_t>(i)] =
            me * 1000.0 + round * 100.0 + i;
      }
      std::vector<SparseSendBlock> sends{
          SparseSendBlock{dest, payload.data(), kCount}};
      std::vector<SparseRecvMessage> got;
      rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5, kSeg);
      ASSERT_EQ(got.size(), 1u) << "round " << round;
      EXPECT_EQ(got[0].source, src);
      std::vector<double> expect(kCount);
      for (int i = 0; i < kCount; ++i) {
        expect[static_cast<std::size_t>(i)] =
            src * 1000.0 + round * 100.0 + i;
      }
      EXPECT_EQ(AsDoubles(got[0].bytes), expect) << "round " << round;
    }
  });
}

TEST(RbcSparse, ChunkedPayloadBoundsMessageSizeAndCount) {
  // A skewed all-to-one payload under a segment limit: every wire message
  // stays within the limit and the sender pays exactly SparseChunksOf
  // payload messages (plus barrier tokens).
  constexpr int kP = 5;
  constexpr int kCount = 100;  // 800 payload bytes
  constexpr std::int64_t kSeg = 128;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    std::vector<double> payload(kCount, me * 1.0);
    std::vector<SparseSendBlock> sends;
    if (me != 0) {
      sends.push_back(SparseSendBlock{0, payload.data(), kCount});
    }
    std::vector<SparseRecvMessage> got;
    mpisim::Ctx().stats.max_message_bytes = 0;
    const std::uint64_t before = mpisim::Ctx().stats.messages_sent;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5, kSeg);
    const std::uint64_t sent = mpisim::Ctx().stats.messages_sent - before;
    EXPECT_LE(mpisim::Ctx().stats.max_message_bytes,
              static_cast<std::uint64_t>(kSeg));
    const auto chunks = static_cast<std::uint64_t>(
        mpisim::SparseChunksOf(kCount * 8, kSeg));
    if (me != 0) {
      EXPECT_GE(sent, chunks);  // payload chunks + barrier tokens
      EXPECT_LT(sent, chunks + static_cast<std::uint64_t>(kP));
    }
    if (me == 0) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kP - 1));
      for (int s = 1; s < kP; ++s) {
        EXPECT_EQ(got[static_cast<std::size_t>(s) - 1].source, s);
        EXPECT_EQ(AsDoubles(got[static_cast<std::size_t>(s) - 1].bytes),
                  std::vector<double>(kCount, s * 1.0));
      }
    }
  });
}

TEST(RbcSparse, SubRangeIgnoresNonMembers) {
  constexpr int kP = 7;
  RunRbc(kP, [](rbc::Comm& world) {
    // Ranks 2..5 run a sparse exchange among themselves.
    rbc::Comm sub;
    rbc::Split_RBC_Comm(world, 2, 5, &sub);
    if (sub.Rank() < 0) return;
    const int me = sub.Rank();
    const int p = sub.Size();
    const int dest = (me + 1) % p;
    std::vector<double> payload = PayloadOf(me, dest, 0);
    std::vector<SparseSendBlock> sends{SparseSendBlock{
        dest, payload.data(), static_cast<int>(payload.size())}};
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, sub, 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].source, (me + p - 1) % p);
  });
}

TEST(RbcSparse, SameTagExchangesOnRangesSharingOneRank) {
  // Two same-tag sparse exchanges on A = {0,1,2} and B = {2,3,4}, which
  // share only the janus rank 2 -- the pattern of JQuick's janus levels.
  // B's members start their exchange and queue their payloads at rank 2
  // before A's members send theirs (token handshake), so when rank 2 runs
  // A, foreign B messages sit ahead of every A message in its mailbox.
  // A's drain after barrier A must still find all of A's messages.
  constexpr int kTag = 11;
  mpisim::Runtime::Options opts;
  opts.num_ranks = 5;
  opts.deadlock_timeout = std::chrono::milliseconds(5000);
  testutil::RunRanks(opts, [](mpisim::Comm& world, mpisim::Runtime&) {
    rbc::Comm rw, a, b;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 0, 2, &a);
    rbc::Split_RBC_Comm(rw, 2, 4, &b);
    const int r = world.Rank();
    const int token = 0;
    // Every non-janus member sends one block to the janus (RBC rank 2 of
    // A, RBC rank 0 of B); the janus sends nothing.
    auto to_janus = [&](int janus_rank, const std::vector<double>& payload) {
      return std::vector<SparseSendBlock>{SparseSendBlock{
          janus_rank, payload.data(), static_cast<int>(payload.size())}};
    };
    if (r >= 3) {
      const std::vector<double> payload = PayloadOf(r, 2, 1);
      std::vector<SparseRecvMessage> got;
      rbc::Request req;
      rbc::IsparseAlltoallv(to_janus(0, payload), Datatype::kFloat64, &got, b,
                            &req, kTag);
      rbc::Send(&token, 1, Datatype::kInt32, 0, 9, rw);  // B queued at 2
      rbc::Send(&token, 1, Datatype::kInt32, 1, 9, rw);
      rbc::Wait(&req);
      EXPECT_TRUE(got.empty());
    } else if (r <= 1) {
      int t = 0;
      rbc::Recv(&t, 1, Datatype::kInt32, 3, 9, rw);
      rbc::Recv(&t, 1, Datatype::kInt32, 4, 9, rw);
      const std::vector<double> payload = PayloadOf(r, 2, 0);
      std::vector<SparseRecvMessage> got;
      rbc::SparseAlltoallv(to_janus(2, payload), Datatype::kFloat64, &got, a,
                           kTag);
      EXPECT_TRUE(got.empty());
    } else {
      std::vector<SparseRecvMessage> got_a, got_b;
      rbc::SparseAlltoallv({}, Datatype::kFloat64, &got_a, a, kTag);
      ASSERT_EQ(got_a.size(), 2u);
      for (int s = 0; s < 2; ++s) {
        EXPECT_EQ(got_a[static_cast<std::size_t>(s)].source, s);
        EXPECT_EQ(AsDoubles(got_a[static_cast<std::size_t>(s)].bytes),
                  PayloadOf(s, 2, 0));
      }
      rbc::Request req;  // B's members all use the nonblocking form
      rbc::IsparseAlltoallv({}, Datatype::kFloat64, &got_b, b, &req, kTag);
      rbc::Wait(&req);
      ASSERT_EQ(got_b.size(), 2u);
      for (int s = 1; s <= 2; ++s) {
        EXPECT_EQ(got_b[static_cast<std::size_t>(s - 1)].source, s);
        EXPECT_EQ(AsDoubles(got_b[static_cast<std::size_t>(s - 1)].bytes),
                  PayloadOf(s + 2, 2, 1));
      }
    }
  });
}

TEST(RbcSparse, NonblockingFormCompletesViaWait) {
  constexpr int kP = 5;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    const int dest = (me + 2) % kP;
    std::vector<double> payload = PayloadOf(me, dest, 0);
    std::vector<SparseSendBlock> sends{SparseSendBlock{
        dest, payload.data(), static_cast<int>(payload.size())}};
    std::vector<SparseRecvMessage> got;
    rbc::Request req;
    rbc::IsparseAlltoallv(sends, Datatype::kFloat64, &got, comm, &req, 5);
    rbc::Wait(&req);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].source, (me + kP - 2) % kP);
    EXPECT_EQ(AsDoubles(got[0].bytes), PayloadOf(got[0].source, me, 0));
  });
}

TEST(RbcSparse, SingleRankSelfOnly) {
  RunRbc(1, [](rbc::Comm& comm) {
    std::vector<double> payload{1.0, 2.0};
    std::vector<SparseSendBlock> sends{SparseSendBlock{0, payload.data(), 2}};
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(AsDoubles(got[0].bytes), payload);
  });
}

TEST(RbcSparse, MessageBudgetHasNoDenseCountsRound) {
  // Sparse pattern on p ranks: each rank sends one payload message. The
  // per-rank send budget must be 1 payload + O(log p) barrier tokens --
  // far below the p-1 messages a dense counts round alone would cost.
  constexpr int kP = 16;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    const int dest = (me + 1) % kP;
    std::vector<double> payload = PayloadOf(me, dest, 0);
    std::vector<SparseSendBlock> sends{SparseSendBlock{
        dest, payload.data(), static_cast<int>(payload.size())}};
    std::vector<SparseRecvMessage> got;
    const std::uint64_t before = mpisim::Ctx().stats.messages_sent;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    const std::uint64_t sent = mpisim::Ctx().stats.messages_sent - before;
    // 1 payload + two binomial-tree barriers (a rank sends at most
    // ~log2 p tokens per traversal, and only the root hits that bound).
    EXPECT_LT(sent, static_cast<std::uint64_t>(kP - 1));
  });
}

}  // namespace
