#include "sort/hypercube_qs.hpp"

#include <algorithm>
#include <random>

#include "sort/partition.hpp"

namespace jsort {
namespace {

constexpr int kTagPairExchange = 512;

/// Group-wide pivot: weighted-reservoir random element or
/// median-of-samples, via reduce/gather + bcast (blocking here -- the
/// hypercube baseline has no janus processes, every process is in exactly
/// one group).
double PickPivot(Transport& tr, const std::vector<double>& data,
                 const HypercubeConfig& cfg, std::mt19937_64& rng,
                 int level) {
  const int tag = level;
  if (cfg.pivot == PivotPolicy::kRandomElement) {
    mpisim::PairDD cand = ReservoirCandidate(data, rng);
    mpisim::WaitUntil(tr.Ireduce(&cand, &cand, 1, Datatype::kPairDoubleDouble,
                                 ReduceOp::kMaxPairFirst, 0, tag),
                      "HypercubeQuicksort: pivot reduce");
    mpisim::WaitUntil(
        tr.Ibcast(&cand, 1, Datatype::kPairDoubleDouble, 0, tag),
        "HypercubeQuicksort: pivot bcast");
    return cand.second;
  }
  const int p = tr.Size();
  const int total = cfg.samples.TotalSamples(p, 1);
  const int per_rank = std::max(1, (total + p - 1) / p);
  std::vector<double> mine(static_cast<std::size_t>(per_rank));
  DrawSamples(data, per_rank, mine.data(), rng);
  std::vector<double> all;
  if (tr.Rank() == 0) all.resize(static_cast<std::size_t>(per_rank) * p);
  mpisim::WaitUntil(tr.Igather(mine.data(), per_rank, Datatype::kFloat64,
                               all.data(), 0, tag),
                    "HypercubeQuicksort: sample gather");
  double pivot = 0.0;
  if (tr.Rank() == 0) pivot = MedianOf(all);
  mpisim::WaitUntil(tr.Ibcast(&pivot, 1, Datatype::kFloat64, 0, tag),
                    "HypercubeQuicksort: pivot bcast");
  return pivot;
}

}  // namespace

std::vector<double> HypercubeQuicksort(
    const std::shared_ptr<Transport>& world, std::vector<double> local,
    const HypercubeConfig& cfg, HypercubeStats* stats) {
  if (world == nullptr) {
    throw mpisim::UsageError("HypercubeQuicksort: null transport");
  }
  if ((world->Size() & (world->Size() - 1)) != 0) {
    throw mpisim::UsageError(
        "HypercubeQuicksort: process count must be a power of two");
  }
  if (stats != nullptr) *stats = HypercubeStats{};
  std::mt19937_64 rng(cfg.seed ^
                      (0x9E3779B97F4A7C15ull *
                       (static_cast<std::uint64_t>(mpisim::Ctx().world_rank) +
                        1)));

  std::shared_ptr<Transport> tr = world;
  int level = 0;
  while (tr->Size() > 1) {
    const int p = tr->Size();
    const int rank = tr->Rank();
    const int half = p / 2;
    const bool low = rank < half;
    const double pivot = PickPivot(*tr, local, cfg, rng, level);
    // Alternate the comparator like JQuick to split duplicate runs.
    const std::size_t cut =
        PartitionInPlace(local, pivot, /*less_equal=*/(level % 2) == 1);

    // Exchange across the hypercube dimension: the low partner keeps the
    // small half and receives the partner's small half, and vice versa.
    const int partner = low ? rank + half : rank - half;
    const double* send_ptr = low ? local.data() + cut : local.data();
    const std::size_t send_n = low ? local.size() - cut : cut;
    tr->Send(send_ptr, static_cast<int>(send_n), Datatype::kFloat64, partner,
             kTagPairExchange + level);
    Status st;
    mpisim::WaitUntil(
        [&] { return tr->IprobeAny(kTagPairExchange + level, &st); },
        "HypercubeQuicksort: partner probe");
    const int incoming = st.Count(Datatype::kFloat64);
    std::vector<double> next;
    next.reserve((low ? cut : local.size() - cut) +
                 static_cast<std::size_t>(incoming));
    if (low) {
      next.assign(local.begin(), local.begin() + static_cast<std::ptrdiff_t>(cut));
    } else {
      next.assign(local.begin() + static_cast<std::ptrdiff_t>(cut), local.end());
    }
    const std::size_t old = next.size();
    next.resize(old + static_cast<std::size_t>(incoming));
    tr->Recv(next.data() + old, incoming, Datatype::kFloat64, partner,
             kTagPairExchange + level);
    local = std::move(next);

    tr = low ? tr->Split(0, half - 1) : tr->Split(half, p - 1);
    ++level;
  }
  std::sort(local.begin(), local.end());
  if (stats != nullptr) {
    stats->levels = level;
    stats->final_elements = static_cast<std::int64_t>(local.size());
  }
  return local;
}

}  // namespace jsort
