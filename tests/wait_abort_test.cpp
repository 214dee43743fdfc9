// Every wait in the sorters, the query kernels and the checkers goes
// through mpisim::WaitUntil, so a failed peer must turn each of them into
// AbortedError naming the failed rank -- never a rank spinning forever.
// Rank 0 fails before it joins; every other rank enters the operation,
// blocks on rank 0 in its first collective, and must leave aborted.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "query/select.hpp"
#include "sort/jsort.hpp"
#include "testutil.hpp"

namespace {

using jsort::Transport;

struct AbortCase {
  const char* name;
  std::function<void(const std::shared_ptr<Transport>&, const rbc::Comm&,
                     std::vector<double>)>
      run;
};

void PrintTo(const AbortCase& c, std::ostream* os) { *os << c.name; }

std::vector<AbortCase> Cases() {
  return {
      {"SampleSort",
       [](const auto& tr, const auto&, auto local) {
         jsort::SampleSort(tr, std::move(local));
       }},
      {"MultilevelK0",
       [](const auto& tr, const auto&, auto local) {
         jsort::MultilevelSampleSort(tr, std::move(local), {.k = 0});
       }},
      {"MultilevelK2",
       [](const auto& tr, const auto&, auto local) {
         jsort::MultilevelSampleSort(tr, std::move(local), {.k = 2});
       }},
      {"HypercubeQuicksort",
       [](const auto& tr, const auto&, auto local) {
         jsort::HypercubeQuicksort(tr, std::move(local));
       }},
      {"JQuickSort",
       [](const auto& tr, const auto&, auto local) {
         jsort::JQuickSort(tr, std::move(local));
       }},
      {"DistributedSelect",
       [](const auto& tr, const auto&, auto local) {
         jsort::query::DistributedSelect(*tr, local, 5);
       }},
      {"IsGloballySorted",
       [](const auto&, const auto& rw, auto local) {
         jsort::IsGloballySorted(local, rw);
       }},
      {"VerifySelection",
       [](const auto& tr, const auto&, auto local) {
         jsort::VerifySelection(*tr, local, 5, 1.0, 0, 1);
       }},
  };
}

class WaitAbort : public ::testing::TestWithParam<AbortCase> {};

INSTANTIATE_TEST_SUITE_P(
    Operations, WaitAbort, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<AbortCase>& info) {
      return std::string(info.param.name);
    });

TEST_P(WaitAbort, LeavesWithAbortedErrorNamingFailedRank) {
  constexpr int kRanks = 4;
  constexpr int kUnset = -2;
  testutil::PerRank<int> origins(kRanks);
  mpisim::Runtime::Options opts;
  opts.num_ranks = kRanks;
  opts.deadlock_timeout = std::chrono::milliseconds(30'000);
  mpisim::Runtime rt(opts);
  try {
    rt.Run([&](mpisim::Comm& world) {
      origins.Set(world.Rank(), kUnset);
      if (world.Rank() == 0) throw mpisim::Error("rank 0 exploding");
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      std::vector<double> local(64);
      for (std::size_t i = 0; i < local.size(); ++i) {
        local[i] = static_cast<double>((i * 37 + world.Rank()) % 101);
      }
      try {
        GetParam().run(jsort::MakeRbcTransport(rw), rw, std::move(local));
      } catch (const mpisim::AbortedError& e) {
        origins.Set(world.Rank(), e.origin_rank());
        return;
      }
      ADD_FAILURE() << "rank " << world.Rank() << " was not aborted";
    });
    ADD_FAILURE() << "expected the injected failure to re-throw";
  } catch (const mpisim::Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0 exploding"),
              std::string::npos)
        << e.what();
  }
  for (int r = 1; r < kRanks; ++r) EXPECT_EQ(origins[r], 0) << "rank " << r;
}

}  // namespace
