// Deadlock forensics: an intentional deadlock must produce a per-rank
// wait graph naming every blocked call's source, tag and communicator
// (plus pending mailbox contents), not a bare timeout. Proactive
// detection must prove p2p deadlocks in milliseconds; spin-waits fall
// back to the (env-overridable) wall-clock timeout. Abort propagation
// must name the originating rank.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "mpisim/mpisim.hpp"
#include "sched/service.hpp"
#include "testutil.hpp"

namespace {

using mpisim::Datatype;

mpisim::Runtime::Options Opts(int p, std::chrono::milliseconds timeout) {
  mpisim::Runtime::Options o;
  o.num_ranks = p;
  o.deadlock_timeout = timeout;
  return o;
}

/// Runs `rank_main` and returns the DeadlockError report it must raise.
std::string ExpectDeadlockReport(
    mpisim::Runtime::Options opts,
    const std::function<void(mpisim::Comm&)>& rank_main) {
  mpisim::Runtime rt(opts);
  try {
    rt.Run(rank_main);
  } catch (const mpisim::DeadlockError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected DeadlockError, got: " << e.what();
    return "";
  }
  ADD_FAILURE() << "expected DeadlockError, got clean run";
  return "";
}

TEST(Deadlock, ProactiveP2PDetectionDumpsWaitGraph) {
  // Mutual blocking receives with no sender anywhere: every rank is
  // blocked on a known envelope pattern with no match, so the detector
  // proves the deadlock immediately -- far before the generous timeout.
  const auto t0 = std::chrono::steady_clock::now();
  const std::string report =
      ExpectDeadlockReport(Opts(2, std::chrono::milliseconds(30'000)),
                           [](mpisim::Comm& world) {
                             double x = 0.0;
                             const int peer = 1 - world.Rank();
                             mpisim::Recv(&x, 1, Datatype::kFloat64, peer, 3,
                                          world);
                           });
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10)) << "detection not proactive";
  EXPECT_NE(report.find("deadlock detected"), std::string::npos) << report;
  EXPECT_NE(report.find("per-rank wait graph"), std::string::npos) << report;
  EXPECT_NE(report.find("rank 0/2"), std::string::npos) << report;
  EXPECT_NE(report.find("rank 1/2"), std::string::npos) << report;
  EXPECT_NE(report.find("blocked in Recv"), std::string::npos) << report;
  EXPECT_NE(report.find("src"), std::string::npos) << report;
  EXPECT_NE(report.find("tag 3"), std::string::npos) << report;
  EXPECT_NE(report.find("comm ctx base"), std::string::npos) << report;
  EXPECT_NE(report.find("pending mailbox contents"), std::string::npos)
      << report;
}

TEST(Deadlock, WaitGraphListsPendingMailboxMessages) {
  // Rank 1 sends a message rank 0 never matches (wrong tag), then blocks
  // on a receive that never arrives: the forensic dump must show rank
  // 0's pending message alongside both blocked calls.
  const std::string report = ExpectDeadlockReport(
      Opts(2, std::chrono::milliseconds(30'000)), [](mpisim::Comm& world) {
        double x = 1.5;
        if (world.Rank() == 1) {
          mpisim::Send(&x, 1, Datatype::kFloat64, 0, 8, world);
        }
        mpisim::Recv(&x, 1, Datatype::kFloat64, 1 - world.Rank(), 4, world);
      });
  EXPECT_NE(report.find("tag 4"), std::string::npos) << report;
  EXPECT_NE(report.find("queued message"), std::string::npos) << report;
  EXPECT_NE(report.find("from world rank 1"), std::string::npos) << report;
  EXPECT_NE(report.find("tag 8"), std::string::npos) << report;
}

TEST(Deadlock, SpinWaitFallsBackToShortTimeoutForensics) {
  // Waiting on a nonblocking receive is a spin-wait (pattern unknown to
  // the registry), so proactive detection stands down; the shortened
  // timeout must still yield the forensic report, in milliseconds.
  const auto t0 = std::chrono::steady_clock::now();
  const std::string report = ExpectDeadlockReport(
      Opts(2, std::chrono::milliseconds(300)), [](mpisim::Comm& world) {
        if (world.Rank() == 0) {
          double x = 0.0;
          mpisim::Request req =
              mpisim::Irecv(&x, 1, Datatype::kFloat64, 1, 6, world);
          mpisim::Wait(req);
        }
        // Rank 1 exits immediately: not blocked, never sends.
      });
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_NE(report.find("timed out (suspected deadlock)"), std::string::npos)
      << report;
  EXPECT_NE(report.find("per-rank wait graph"), std::string::npos) << report;
  EXPECT_NE(report.find("blocked in Wait"), std::string::npos) << report;
  EXPECT_NE(report.find("not blocked in the substrate"), std::string::npos)
      << report;
}

TEST(Deadlock, SpinWaitWithTrafficOutlivesTimeout) {
  // A wait that keeps receiving is progress, not a deadlock: rank 0 polls
  // one WaitUntil for ten messages rank 1 sends ~100 ms apart -- ~1 s in
  // all, under a 300 ms timeout. Every arrival restarts the deadline.
  constexpr int kMessages = 10;
  testutil::PerRank<int> received(2);
  mpisim::Runtime rt(Opts(2, std::chrono::milliseconds(300)));
  rt.Run([&](mpisim::Comm& world) {
    if (world.Rank() == 1) {
      for (int i = 0; i < kMessages; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        mpisim::Send(&i, 1, Datatype::kInt32, 0, 5, world);
      }
      return;
    }
    int got = 0;
    mpisim::WaitUntil(
        [&] {
          if (mpisim::Iprobe(1, 5, world)) {
            int x = 0;
            mpisim::Recv(&x, 1, Datatype::kInt32, 1, 5, world);
            ++got;
          }
          return got == kMessages;
        },
        "test: paced receives");
    received.Set(0, got);
  });
  EXPECT_EQ(received[0], kMessages);
}

TEST(Deadlock, RbcWaitTimeoutDumpsWaitGraph) {
  // rbc::Wait is a spin-wait like mpisim::Wait: it must register the wait
  // and time out with the same per-rank wait graph, not a bare one-liner.
  const std::string report = ExpectDeadlockReport(
      Opts(2, std::chrono::milliseconds(300)), [](mpisim::Comm& world) {
        rbc::Comm rw;
        rbc::Create_RBC_Comm(world, &rw);
        if (rw.Rank() == 0) {
          double x = 0.0;
          rbc::Request req;
          rbc::Irecv(&x, 1, Datatype::kFloat64, 1, 6, rw, &req);
          rbc::Wait(&req);
        }
      });
  EXPECT_NE(report.find("timed out (suspected deadlock)"), std::string::npos)
      << report;
  EXPECT_NE(report.find("per-rank wait graph"), std::string::npos) << report;
  EXPECT_NE(report.find("blocked in rbc: Wait"), std::string::npos)
      << report;
}

TEST(Deadlock, RbcWaitAbortNamesOriginatingRank) {
  // Rank 1 fails before sending; rank 0's rbc::Wait on the matching Irecv
  // must leave with AbortedError naming rank 1.
  testutil::PerRank<int> origins(2);
  mpisim::Runtime rt(Opts(2, std::chrono::milliseconds(30'000)));
  try {
    rt.Run([&](mpisim::Comm& world) {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      if (rw.Rank() == 1) throw mpisim::Error("sender exploding");
      double x = 0.0;
      rbc::Request req;
      rbc::Irecv(&x, 1, Datatype::kFloat64, 1, 6, rw, &req);
      try {
        rbc::Wait(&req);
      } catch (const mpisim::AbortedError& e) {
        origins.Set(world.Rank(), e.origin_rank());
        return;
      }
      ADD_FAILURE() << "rank 0 was not aborted";
    });
    ADD_FAILURE() << "expected the injected failure to re-throw";
  } catch (const mpisim::Error& e) {
    EXPECT_NE(std::string(e.what()).find("sender exploding"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(origins[0], 1);
}

TEST(Deadlock, TimeoutEnvOverride) {
  const char* old = std::getenv("MPISIM_DEADLOCK_TIMEOUT_MS");
  const std::string saved = old != nullptr ? old : "";
  const bool had = old != nullptr;

  setenv("MPISIM_DEADLOCK_TIMEOUT_MS", "250", 1);
  {
    mpisim::RuntimeConfig opts;
    opts.num_ranks = 1;
    mpisim::Runtime rt(opts);
    EXPECT_EQ(rt.options().deadlock_timeout,
              std::chrono::milliseconds(250));
    // And it is live: a spin-wait deadlock resolves in ~250 ms, not the
    // 60 s default.
    const auto t0 = std::chrono::steady_clock::now();
    try {
      rt.Run([](mpisim::Comm& world) {
        double x = 0.0;
        mpisim::Request req =
            mpisim::Irecv(&x, 1, Datatype::kFloat64, 0, 2, world);
        mpisim::Wait(req);
      });
      ADD_FAILURE() << "expected DeadlockError";
    } catch (const mpisim::DeadlockError&) {
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
  }

  if (had) {
    setenv("MPISIM_DEADLOCK_TIMEOUT_MS", saved.c_str(), 1);
  } else {
    unsetenv("MPISIM_DEADLOCK_TIMEOUT_MS");
  }
}

TEST(Deadlock, AbortNamesOriginatingRank) {
  // Rank 2 fails; ranks blocked on it must see AbortedError carrying the
  // origin, and the runtime must re-throw rank 2's error -- which, being
  // an mpisim::Error built on a rank thread, carries the rank prefix.
  testutil::PerRank<int> origins(3);
  testutil::PerRank<std::string> messages(3);
  mpisim::Runtime rt(Opts(3, std::chrono::milliseconds(30'000)));
  try {
    rt.Run([&](mpisim::Comm& world) {
      if (world.Rank() == 2) throw mpisim::Error("injected failure");
      double x = 0.0;
      try {
        mpisim::Recv(&x, 1, Datatype::kFloat64, 2, 7, world);
      } catch (const mpisim::AbortedError& e) {
        origins.Set(world.Rank(), e.origin_rank());
        messages.Set(world.Rank(), e.what());
        return;
      }
      ADD_FAILURE() << "rank " << world.Rank() << " was not aborted";
    });
    ADD_FAILURE() << "expected the injected failure to re-throw";
  } catch (const mpisim::Error& e) {
    EXPECT_NE(std::string(e.what()).find("[rank 2/3]"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("injected failure"),
              std::string::npos)
        << e.what();
  }
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(origins[r], 2);
    EXPECT_NE(messages[r].find("rank 2 failed"), std::string::npos)
        << messages[r];
  }
}

TEST(Deadlock, ServiceBarrierAbortNamesOriginatingRank) {
  // One member of a service job fails after the sort; the others sit in
  // the service's *out-of-band* wave barrier (plain process memory, no
  // substrate messages) and must still learn who caused the abort.
  constexpr int kRanks = 4;
  jsort::sched::JobSpec job;
  job.id = 0;
  job.n_total = 256;
  job.width = kRanks;

  jsort::sched::ServiceConfig cfg;
  cfg.on_job_output = [](const jsort::sched::Admission&, int,
                         std::span<const double>) {
    if (mpisim::Ctx().world_rank == 1) {
      throw mpisim::Error("member exploding");
    }
  };

  jsort::sched::SortService service(kRanks, {job}, cfg);
  testutil::PerRank<int> origins(kRanks);
  mpisim::Runtime rt(Opts(kRanks, std::chrono::milliseconds(30'000)));
  try {
    rt.Run([&](mpisim::Comm& world) {
      try {
        service.Run(world);
      } catch (const mpisim::AbortedError& e) {
        origins.Set(world.Rank(), e.origin_rank());
        return;
      }
      ADD_FAILURE() << "rank " << world.Rank() << " was not aborted";
    });
    ADD_FAILURE() << "expected the injected failure to re-throw";
  } catch (const mpisim::Error& e) {
    EXPECT_NE(std::string(e.what()).find("member exploding"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("[rank 1/4]"), std::string::npos)
        << e.what();
  }
  for (const int r : {0, 2, 3}) {
    EXPECT_EQ(origins[r], 1) << "rank " << r;
  }
}

}  // namespace
