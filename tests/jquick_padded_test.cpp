// JQuickSortPadded: the arbitrary-n front end, swept over irregular
// distributions (the paper assumes n = p * (n/p); padding generalizes it).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <tuple>

#include "sort/checks.hpp"
#include "sort/jquick.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::InputKind;
using testutil::RunRanks;

/// Per-rank input size patterns.
enum class SizePattern { kRampUp, kOneHot, kRandomish, kEmptyMiddle };

std::int64_t SizeOfRank(SizePattern pat, int rank, int p) {
  switch (pat) {
    case SizePattern::kRampUp:
      return rank;  // 0, 1, 2, ...
    case SizePattern::kOneHot:
      return rank == p / 2 ? 37 : 0;
    case SizePattern::kRandomish:
      return (rank * 7919) % 23;
    case SizePattern::kEmptyMiddle:
      return (rank > 0 && rank < p - 1) ? 0 : 11;
  }
  return 0;
}

class PaddedSweep
    : public ::testing::TestWithParam<std::tuple<int, SizePattern, InputKind>> {
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, PaddedSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 11),
                       ::testing::Values(SizePattern::kRampUp,
                                         SizePattern::kOneHot,
                                         SizePattern::kRandomish,
                                         SizePattern::kEmptyMiddle),
                       ::testing::Values(InputKind::kUniform,
                                         InputKind::kFewDistinct)));

TEST_P(PaddedSweep, SortsIrregularDistributions) {
  const auto [p, pat, kind] = GetParam();
  RunRanks(p, [&, p = p, pat = pat, kind = kind](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    const std::int64_t mine = SizeOfRank(pat, world.Rank(), p);
    auto input = jsort::GenerateInput(kind, world.Rank(), p, mine, 19);
    const auto before = jsort::GlobalFingerprint(input, rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const auto out = jsort::JQuickSortPadded(tr, std::move(input));
    EXPECT_EQ(before, jsort::GlobalFingerprint(out, rw));
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

TEST(Padded, AllEmptyInputsYieldAllEmptyOutputs) {
  RunRanks(4, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const auto out = jsort::JQuickSortPadded(tr, {});
    EXPECT_TRUE(out.empty());
  });
}

TEST(Padded, InfinityInputsSurviveSentinelStripping) {
  // +inf is the padding sentinel; genuine +inf inputs must not be lost.
  // The contract strips *trailing* padding only when the caller's own
  // data does not contain +inf; with +inf inputs the count may shrink,
  // so the documented usage is finite inputs. Verify finite data near
  // DBL_MAX survives exactly.
  RunRanks(3, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    std::vector<double> input;
    if (world.Rank() == 0) {
      input = {std::numeric_limits<double>::max(), 1.0,
               -std::numeric_limits<double>::max()};
    }
    const auto before = jsort::GlobalFingerprint(input, rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const auto out = jsort::JQuickSortPadded(tr, std::move(input));
    EXPECT_EQ(before, jsort::GlobalFingerprint(out, rw));
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

TEST(Padded, QuotaWaitAbortsWhenPeerFails) {
  // The quota agreement's reduce root fails before joining; every other
  // rank waits in the quota reduce/bcast and must leave it with
  // AbortedError naming the root instead of spinning forever.
  constexpr int kRanks = 4;
  testutil::PerRank<int> origins(kRanks);
  mpisim::Runtime::Options opts;
  opts.num_ranks = kRanks;
  opts.deadlock_timeout = std::chrono::milliseconds(30'000);
  mpisim::Runtime rt(opts);
  try {
    rt.Run([&](mpisim::Comm& world) {
      if (world.Rank() == 0) throw mpisim::Error("root exploding");
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      try {
        jsort::JQuickSortPadded(jsort::MakeRbcTransport(rw), {1.0, 2.0});
      } catch (const mpisim::AbortedError& e) {
        origins.Set(world.Rank(), e.origin_rank());
        return;
      }
      ADD_FAILURE() << "rank " << world.Rank() << " was not aborted";
    });
    ADD_FAILURE() << "expected the injected failure to re-throw";
  } catch (const mpisim::Error& e) {
    EXPECT_NE(std::string(e.what()).find("root exploding"),
              std::string::npos)
        << e.what();
  }
  for (int r = 1; r < kRanks; ++r) EXPECT_EQ(origins[r], 0) << "rank " << r;
}

}  // namespace
