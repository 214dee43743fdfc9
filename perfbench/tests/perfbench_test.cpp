// Unit tests of the benchmark's own code: percentiles, span self times,
// the per-op failure domain and the determinism of the generated inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "driver.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentiles, NearestRankOnKnownVectors) {
  EXPECT_EQ(NearestRank({5.0, 1.0, 3.0}, 0.5), 3.0);
  EXPECT_EQ(NearestRank({4.0, 1.0, 3.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(NearestRank(OneTo(100), 0.9), 90.0);
  EXPECT_EQ(NearestRank(OneTo(10), 0.9), 9.0);
  EXPECT_EQ(NearestRank(OneTo(10), 1.0), 10.0);
  EXPECT_EQ(NearestRank(OneTo(7), 0.01), 1.0);
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
  EXPECT_EQ(Median(OneTo(101)), 51.0);
}

TEST(Percentiles, TailNeedsTenSamplesBeyond) {
  // 100 samples: p90 is rank 90, with exactly ten samples beyond it.
  EXPECT_EQ(TailPercentile(OneTo(100), 0.9), 90.0);
  EXPECT_DOUBLE_EQ(TailQuantileUsed(100, 0.9), 0.9);
  // 200 samples: plenty beyond, the requested quantile stands.
  EXPECT_EQ(TailPercentile(OneTo(200), 0.9), 180.0);
  // 50 samples: p90 (rank 45) has only five beyond; fall back to rank 40.
  EXPECT_EQ(TailPercentile(OneTo(50), 0.9), 40.0);
  EXPECT_DOUBLE_EQ(TailQuantileUsed(50, 0.9), 0.8);
  // 99 samples: rank 90 would leave nine beyond; rank 89 leaves ten.
  EXPECT_EQ(TailPercentile(OneTo(99), 0.9), 89.0);
  // Too few samples for any tail: never below the median.
  EXPECT_EQ(TailPercentile(OneTo(15), 0.9), 8.0);
  EXPECT_EQ(TailPercentile(OneTo(3), 0.9), 2.0);
}

Span Make(std::uint64_t id, std::uint64_t parent, const char* layer, int rank,
          double wb, double we, double vb = kUnset, double ve = kUnset) {
  Span s;
  s.name = layer;
  s.layer = layer;
  s.rank = rank;
  s.id = id;
  s.parent = parent;
  s.wall_begin_us = wb;
  s.wall_end_us = we;
  s.vtime_begin = vb;
  s.vtime_end = ve;
  return s;
}

TEST(SpanSelfTime, HandBuiltTree) {
  // bench [0, 100) on the driver
  //   mpisim [10, 90)                       (driver)
  //     sort  [20, 60)  vtime [0, 50) rank 0
  //       rbc [30, 40)  vtime [5, 15) rank 0
  //       rbc [35, 45)  vtime [10, 30) rank 0  (overlaps its sibling)
  //     sort  [50, 80)  vtime [0, 20) rank 1  (overlaps rank 0's sort)
  //       rbc [75, 95)  vtime [0, 40) rank 2  (clipped to its parent;
  //                                            other rank: no vtime credit)
  const std::vector<Span> spans = {
      Make(1, 0, "bench", -1, 0, 100),
      Make(2, 1, "mpisim", -1, 10, 90),
      Make(3, 2, "sort", 0, 20, 60, 0, 50),
      Make(4, 3, "rbc", 0, 30, 40, 5, 15),
      Make(5, 3, "rbc", 0, 35, 45, 10, 30),
      Make(6, 2, "sort", 1, 50, 80, 0, 20),
      Make(7, 6, "rbc", 2, 75, 95, 0, 40),
  };
  const auto t = SelfTimeByLayer(spans);
  // bench: 100 - 80 covered by mpisim.
  EXPECT_DOUBLE_EQ(t.at("bench").self_wall_us, 20.0);
  // mpisim: 80 - union([20,60), [50,80)) = 80 - 60.
  EXPECT_DOUBLE_EQ(t.at("mpisim").self_wall_us, 20.0);
  // sort: (40 - union([30,40),[35,45)) = 25) + (30 - [75,80) = 25).
  EXPECT_DOUBLE_EQ(t.at("sort").self_wall_us, 50.0);
  // rbc leaves: 10 + 10 + 20.
  EXPECT_DOUBLE_EQ(t.at("rbc").self_wall_us, 40.0);
  // Model time: rank 0 sort 50 - union([5,15),[10,30)) = 25; rank 1 sort
  // 20 (its child is on rank 2); rbc leaves 10 + 20 + 40.
  EXPECT_DOUBLE_EQ(t.at("sort").self_vtime, 45.0);
  EXPECT_DOUBLE_EQ(t.at("rbc").self_vtime, 70.0);
  EXPECT_DOUBLE_EQ(t.at("bench").self_vtime, 0.0);
}

mpisim::Runtime::Options SmallMachine() {
  mpisim::Runtime::Options o;
  o.num_ranks = 4;
  o.deadlock_timeout = std::chrono::milliseconds(500);
  return o;
}

TEST(OpRunner, ThrowingRankFailsOnlyItsOpAndRunsContinue) {
  OpRunner runner(SmallMachine());
  std::atomic<int> completed{0};
  int op = 0;
  const auto rank_main = [&](mpisim::Comm& world) {
    if (op == 1 && world.Rank() == 2) {
      throw mpisim::Error("injected failure");
    }
    mpisim::Barrier(world);
    if (world.Rank() == 0) ++completed;
  };
  std::vector<bool> ok;
  for (op = 0; op < 4; ++op) ok.push_back(runner.Run(rank_main));
  EXPECT_EQ(ok, (std::vector<bool>{true, false, true, true}));
  EXPECT_EQ(completed.load(), 3);
  EXPECT_NE(runner.last_error().find("injected failure"), std::string::npos);
}

TEST(OpRunner, NonMpisimExceptionAndDeadlockAreFailedOps) {
  OpRunner runner(SmallMachine());
  EXPECT_FALSE(runner.Run([](mpisim::Comm& world) {
    if (world.Rank() == 3) throw std::runtime_error("plain error");
    mpisim::Barrier(world);
  }));
  // Rank 1 waits for a message nobody sends: the runtime's deadlock
  // detection (or its timeout) ends the op as a failure.
  EXPECT_FALSE(runner.Run([](mpisim::Comm& world) {
    if (world.Rank() == 1) {
      int x = 0;
      mpisim::Recv(&x, 1, mpisim::Datatype::kInt32, 0, 99, world);
    }
  }));
  EXPECT_TRUE(runner.Run([](mpisim::Comm& world) { mpisim::Barrier(world); }));
}

TEST(Determinism, InputFingerprintFollowsTheSeed) {
  for (const Workload w : {Workload::kJQuickBulk, Workload::kMultilevelHier,
                           Workload::kServiceMix}) {
    EXPECT_EQ(WorkloadInputFingerprint(w, 7), WorkloadInputFingerprint(w, 7));
    EXPECT_NE(WorkloadInputFingerprint(w, 7), WorkloadInputFingerprint(w, 8));
  }
  EXPECT_NE(OpSeed(7, 0), OpSeed(7, 1));
  EXPECT_NE(OpSeed(7, 0), OpSeed(8, 0));
}

TEST(Report, JsonHasTheFourKeysAndFullDigits) {
  Report r;
  r.correct = true;
  r.attempted = 12;
  r.failed = 1;
  r.metrics = {{"op_vtime_p50", 16843.125, "model_us"},
               {"setup_s", 0.5, "s"}};
  EXPECT_EQ(ReportJson(r),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
            "\"metrics\": {\"op_vtime_p50\": {\"value\": "
            "16843.125, \"unit\": \"model_us\"}, \"setup_s\": "
            "{\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
