// RBC point-to-point semantics, especially the membership-filtered
// wildcard operations of Section V-C.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <vector>

#include "testutil.hpp"

namespace {

using rbc::Datatype;
using testutil::RunRanks;
using testutil::RunRbc;

TEST(RbcP2P, SendRecvInsideRangeUsesRangeRanks) {
  RunRanks(6, [](mpisim::Comm& world) {
    rbc::Comm rw, mid;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 2, 4, &mid);
    if (world.Rank() == 2) {
      const int v = 77;
      rbc::Send(&v, 1, Datatype::kInt32, 2, 5, mid);  // RBC rank 2 = MPI 4
    } else if (world.Rank() == 4) {
      int got = 0;
      rbc::Status st;
      rbc::Recv(&got, 1, Datatype::kInt32, 0, 5, mid, &st);
      EXPECT_EQ(got, 77);
      EXPECT_EQ(st.source, 0);  // RBC rank of the sender
    }
  });
}

TEST(RbcP2P, WildcardRecvTranslatesSource) {
  RunRbc(4, [](rbc::Comm& rw) {
    if (rw.Rank() == 3) {
      double got = 0;
      rbc::Status st;
      rbc::Recv(&got, 1, Datatype::kFloat64, rbc::kAnySource, 2, rw, &st);
      EXPECT_DOUBLE_EQ(got, 1.5);
      EXPECT_EQ(st.source, 1);
    } else if (rw.Rank() == 1) {
      const double v = 1.5;
      rbc::Send(&v, 1, Datatype::kFloat64, 3, 2, rw);
    }
  });
}

TEST(RbcP2P, IprobeFiltersForeignSources) {
  // Rank 2 is in both left {0..2} and right {2..4} ranges. A message from
  // the right range must be invisible to a wildcard probe on the left
  // range, even with identical tags.
  RunRanks(5, [](mpisim::Comm& world) {
    rbc::Comm rw, left, right;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 0, 2, &left);
    rbc::Split_RBC_Comm(rw, 2, 4, &right);
    constexpr int kTag = 3;
    if (world.Rank() == 4) {
      const int v = 40;
      rbc::Send(&v, 1, Datatype::kInt32, 0, kTag, right);  // to MPI rank 2
    } else if (world.Rank() == 0) {
      const int v = 10;
      rbc::Send(&v, 1, Datatype::kInt32, 2, kTag, left);  // to MPI rank 2
    } else if (world.Rank() == 2) {
      // Drain the left message via a wildcard on `left`; the right-range
      // message must never be matched by it.
      int got = 0;
      rbc::Status st;
      rbc::Recv(&got, 1, Datatype::kInt32, rbc::kAnySource, kTag, left, &st);
      EXPECT_EQ(got, 10);
      EXPECT_EQ(st.source, 0);
      rbc::Recv(&got, 1, Datatype::kInt32, rbc::kAnySource, kTag, right, &st);
      EXPECT_EQ(got, 40);
      EXPECT_EQ(st.source, 2);  // rank 4 is RBC rank 2 of the right range
    }
  });
}

TEST(RbcP2P, IprobeReportsFalseForForeignHeadOfQueue) {
  RunRanks(4, [](mpisim::Comm& world) {
    rbc::Comm rw, left, right;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 0, 1, &left);   // {0,1}
    rbc::Split_RBC_Comm(rw, 1, 3, &right);  // {1,2,3}
    if (world.Rank() == 3) {
      const int v = 1;
      rbc::Send(&v, 1, Datatype::kInt32, 0, 7, right);  // to MPI rank 1
      // Handshake so the probe below definitely sees the message queued.
      const int token = 0;
      rbc::Send(&token, 1, Datatype::kInt32, 0, 8, right);
    } else if (world.Rank() == 1) {
      int token = 0;
      rbc::Recv(&token, 1, Datatype::kInt32, 2, 8, right);
      // The right-range message is at the head of the queue; probing the
      // left range with the same tag must not see it.
      int flag = 1;
      rbc::Status st;
      rbc::Iprobe(rbc::kAnySource, 7, left, &flag, &st);
      EXPECT_EQ(flag, 0);
      // But it is there for the right range.
      rbc::Iprobe(rbc::kAnySource, 7, right, &flag, &st);
      EXPECT_EQ(flag, 1);
      int got = 0;
      rbc::Recv(&got, 1, Datatype::kInt32, st.source, 7, right);
      EXPECT_EQ(got, 1);
    }
  });
}

/// Janus setup for the foreign-first regressions: MPI rank 1 is in both
/// left {0,1} and right {1,2,3}. Rank 3 queues a right-range message at
/// rank 1 first, then signals rank 0, which only then queues its
/// left-range message and a "both queued" token. The mailbox order at
/// rank 1 is therefore deterministic: foreign (for `left`) message first,
/// member message behind it. `check` runs on rank 1 once both are queued.
/// A short deadlock timeout turns a regressed wildcard wait into a fast
/// DeadlockError instead of a 60 s hang.
void RunForeignFirst(
    const std::function<void(const rbc::Comm& left, const rbc::Comm& right)>&
        check) {
  mpisim::Runtime::Options opts;
  opts.num_ranks = 4;
  opts.deadlock_timeout = std::chrono::milliseconds(5000);
  RunRanks(opts, [&](mpisim::Comm& world, mpisim::Runtime&) {
    rbc::Comm rw, left, right;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 0, 1, &left);
    rbc::Split_RBC_Comm(rw, 1, 3, &right);
    constexpr int kTag = 7;
    const int token = 0;
    if (world.Rank() == 3) {
      const int v = 40;
      rbc::Send(&v, 1, Datatype::kInt32, 0, kTag, right);  // to MPI rank 1
      rbc::Send(&token, 1, Datatype::kInt32, 0, 9, rw);
    } else if (world.Rank() == 0) {
      int got = 0;
      rbc::Recv(&got, 1, Datatype::kInt32, 3, 9, rw);
      const int v = 10;
      rbc::Send(&v, 1, Datatype::kInt32, 1, kTag, left);  // to MPI rank 1
      rbc::Send(&token, 1, Datatype::kInt32, 1, 8, left);
    } else if (world.Rank() == 1) {
      int got = 0;
      rbc::Recv(&got, 1, Datatype::kInt32, 0, 8, left);
      check(left, right);
    }
  });
}

TEST(RbcP2P, IprobeFindsMemberBehindForeignHead) {
  RunForeignFirst([](const rbc::Comm& left, const rbc::Comm& right) {
    int flag = 0;
    rbc::Status st;
    rbc::Iprobe(rbc::kAnySource, 7, left, &flag, &st);
    ASSERT_EQ(flag, 1);
    EXPECT_EQ(st.source, 0);
    int got = 0;
    rbc::Recv(&got, 1, Datatype::kInt32, st.source, 7, left);
    EXPECT_EQ(got, 10);
    rbc::Iprobe(rbc::kAnySource, 7, right, &flag, &st);
    ASSERT_EQ(flag, 1);
    EXPECT_EQ(st.source, 2);  // MPI rank 3 is RBC rank 2 of `right`
    rbc::Recv(&got, 1, Datatype::kInt32, st.source, 7, right);
    EXPECT_EQ(got, 40);
  });
}

TEST(RbcP2P, ProbeWildcardFindsMemberBehindForeignHead) {
  RunForeignFirst([](const rbc::Comm& left, const rbc::Comm& right) {
    rbc::Status st;
    rbc::Probe(rbc::kAnySource, 7, left, &st);
    EXPECT_EQ(st.source, 0);
    int got = 0;
    rbc::Recv(&got, 1, Datatype::kInt32, rbc::kAnySource, 7, left, &st);
    EXPECT_EQ(got, 10);
    EXPECT_EQ(st.source, 0);
    rbc::Recv(&got, 1, Datatype::kInt32, rbc::kAnySource, 7, right, &st);
    EXPECT_EQ(got, 40);
    EXPECT_EQ(st.source, 2);
  });
}

TEST(RbcP2P, IrecvWildcardFindsMemberBehindForeignHead) {
  RunForeignFirst([](const rbc::Comm& left, const rbc::Comm& right) {
    int got = 0;
    rbc::Request req;
    rbc::Irecv(&got, 1, Datatype::kInt32, rbc::kAnySource, 7, left, &req);
    int flag = 0;
    rbc::Status st;
    rbc::Test(&req, &flag, &st);  // both messages are queued already
    ASSERT_EQ(flag, 1);
    EXPECT_EQ(got, 10);
    EXPECT_EQ(st.source, 0);
    rbc::Irecv(&got, 1, Datatype::kInt32, rbc::kAnySource, 7, right, &req);
    rbc::Wait(&req, &st);
    EXPECT_EQ(got, 40);
    EXPECT_EQ(st.source, 2);
  });
}

TEST(RbcP2P, IrecvWildcardFindsMessageOnLaterTest) {
  RunRbc(3, [](rbc::Comm& rw) {
    if (rw.Rank() == 0) {
      int got = -1;
      rbc::Request req;
      rbc::Irecv(&got, 1, Datatype::kInt32, rbc::kAnySource, 9, rw, &req);
      int flag = 0;
      rbc::Test(&req, &flag, nullptr);  // typically not yet complete
      const int token = 0;
      rbc::Send(&token, 1, Datatype::kInt32, 2, 1, rw);
      rbc::Status st;
      rbc::Wait(&req, &st);
      EXPECT_EQ(got, 5);
      EXPECT_EQ(st.source, 2);
    } else if (rw.Rank() == 2) {
      int token = 0;
      rbc::Recv(&token, 1, Datatype::kInt32, 0, 1, rw);
      const int v = 5;
      rbc::Send(&v, 1, Datatype::kInt32, 0, 9, rw);
    }
  });
}

TEST(RbcP2P, IsendCompletesEagerly) {
  RunRbc(2, [](rbc::Comm& rw) {
    if (rw.Rank() == 0) {
      const double v = 3.25;
      rbc::Request req;
      rbc::Isend(&v, 1, Datatype::kFloat64, 1, 0, rw, &req);
      int flag = 0;
      rbc::Test(&req, &flag, nullptr);
      EXPECT_EQ(flag, 1);
    } else {
      double got = 0;
      rbc::Recv(&got, 1, Datatype::kFloat64, 0, 0, rw);
      EXPECT_DOUBLE_EQ(got, 3.25);
    }
  });
}

TEST(RbcP2P, ReservedTagsAreRejected) {
  RunRbc(2, [](rbc::Comm& rw) {
    const int v = 0;
    EXPECT_THROW(
        rbc::Send(&v, 1, Datatype::kInt32, 0, rbc::kReservedTagBase, rw),
        mpisim::UsageError);
    EXPECT_THROW(rbc::Send(&v, 1, Datatype::kInt32, 0, -1, rw),
                 mpisim::UsageError);
  });
}

TEST(RbcP2P, NonMemberOperationsThrow) {
  RunRanks(4, [](mpisim::Comm& world) {
    rbc::Comm rw, right;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 2, 3, &right);
    if (world.Rank() == 0) {
      const int v = 0;
      EXPECT_THROW(rbc::Send(&v, 1, Datatype::kInt32, 0, 0, right),
                   mpisim::UsageError);
    }
  });
}

TEST(RbcP2P, WaitallDrainsManyRequests) {
  RunRbc(4, [](rbc::Comm& rw) {
    const int peer = rw.Rank() ^ 1;
    std::vector<int> out(8, rw.Rank());
    std::vector<int> in(8, -1);
    std::vector<rbc::Request> reqs;
    for (int i = 0; i < 8; ++i) {
      rbc::Request s, r;
      rbc::Isend(&out[static_cast<std::size_t>(i)], 1, Datatype::kInt32,
                 peer, i, rw, &s);
      rbc::Irecv(&in[static_cast<std::size_t>(i)], 1, Datatype::kInt32, peer,
                 i, rw, &r);
      reqs.push_back(s);
      reqs.push_back(r);
    }
    rbc::Waitall(reqs);
    for (int v : in) EXPECT_EQ(v, peer);
  });
}

TEST(RbcP2P, ProbeWildcardSpinsUntilMessage) {
  RunRbc(2, [](rbc::Comm& rw) {
    if (rw.Rank() == 0) {
      rbc::Status st;
      rbc::Probe(rbc::kAnySource, 6, rw, &st);
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.Count(Datatype::kInt32), 3);
      int got[3];
      rbc::Recv(got, 3, Datatype::kInt32, st.source, 6, rw);
      EXPECT_EQ(got[2], 2);
    } else {
      const int v[3] = {0, 1, 2};
      rbc::Send(v, 3, Datatype::kInt32, 0, 6, rw);
    }
  });
}

}  // namespace
