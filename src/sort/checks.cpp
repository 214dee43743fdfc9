#include "sort/checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace jsort {
namespace {

/// splitmix64-style bit mixer; applied to the raw bit pattern of each
/// element so that xor over all elements is order- and
/// distribution-independent.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t BitsOf(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Blocking allreduce over a Transport (Ireduce to rank 0 + Ibcast),
/// mirroring jsort::query's helper; the checkers run over Transport so
/// they verify on whichever backend produced the answer.
void TrAllreduce(Transport& tr, const void* in, void* out, int count,
                 Datatype dt, ReduceOp op, int tag) {
  mpisim::WaitUntil(tr.Ireduce(in, out, count, dt, op, 0, tag),
                    "jsort checks: allreduce reduce");
  mpisim::WaitUntil(tr.Ibcast(out, count, dt, 0, tag + 1),
                    "jsort checks: allreduce bcast");
}

}  // namespace

Fingerprint GlobalFingerprint(std::span<const double> local,
                              const rbc::Comm& comm) {
  Fingerprint mine;
  mine.count = static_cast<std::int64_t>(local.size());
  for (double v : local) {
    mine.hash_sum += Mix(BitsOf(v));
    mine.sum += v;
  }
  Fingerprint global = mine;
  rbc::Reduce(&mine.count, &global.count, 1, rbc::Datatype::kInt64,
              rbc::ReduceOp::kSum, 0, comm);
  rbc::Reduce(&mine.hash_sum, &global.hash_sum, 1, rbc::Datatype::kUint64,
              rbc::ReduceOp::kSum, 0, comm);
  rbc::Reduce(&mine.sum, &global.sum, 1, rbc::Datatype::kFloat64,
              rbc::ReduceOp::kSum, 0, comm);
  rbc::Bcast(&global.count, 1, rbc::Datatype::kInt64, 0, comm);
  rbc::Bcast(&global.hash_sum, 1, rbc::Datatype::kUint64, 0, comm);
  rbc::Bcast(&global.sum, 1, rbc::Datatype::kFloat64, 0, comm);
  return global;
}

bool IsGloballySorted(std::span<const double> local, const rbc::Comm& comm) {
  const std::uint8_t locally_sorted =
      std::is_sorted(local.begin(), local.end()) ? 1 : 0;
  // Per-rank summary: {has_elements, first, last, locally_sorted}.
  const double summary[4] = {
      local.empty() ? 0.0 : 1.0,
      local.empty() ? 0.0 : local.front(),
      local.empty() ? 0.0 : local.back(),
      static_cast<double>(locally_sorted),
  };
  std::vector<double> all;
  if (comm.Rank() == 0) {
    all.resize(static_cast<std::size_t>(comm.Size()) * 4);
  }
  rbc::Gather(summary, 4, rbc::Datatype::kFloat64, all.data(), 0, comm);
  std::uint8_t ok = 1;
  if (comm.Rank() == 0) {
    bool have_prev = false;
    double prev_last = 0.0;
    for (int r = 0; r < comm.Size(); ++r) {
      const double* s = all.data() + static_cast<std::size_t>(r) * 4;
      if (s[3] == 0.0) ok = 0;
      if (s[0] == 0.0) continue;  // empty rank
      if (have_prev && prev_last > s[1]) ok = 0;
      prev_last = s[2];
      have_prev = true;
    }
  }
  rbc::Bcast(&ok, 1, rbc::Datatype::kByte, 0, comm);
  return ok != 0;
}

Balance GlobalBalance(std::span<const double> local, const rbc::Comm& comm) {
  const std::int64_t count = static_cast<std::int64_t>(local.size());
  Balance b{count, count};
  rbc::Reduce(&count, &b.min_count, 1, rbc::Datatype::kInt64,
              rbc::ReduceOp::kMin, 0, comm);
  rbc::Reduce(&count, &b.max_count, 1, rbc::Datatype::kInt64,
              rbc::ReduceOp::kMax, 0, comm);
  rbc::Bcast(&b.min_count, 1, rbc::Datatype::kInt64, 0, comm);
  rbc::Bcast(&b.max_count, 1, rbc::Datatype::kInt64, 0, comm);
  return b;
}

bool VerifySelection(Transport& tr, std::span<const double> local,
                     std::int64_t k, double value, std::int64_t less,
                     std::int64_t less_equal, int tag) {
  std::int64_t mine[3] = {0, 0, static_cast<std::int64_t>(local.size())};
  for (const double x : local) {
    if (x < value) ++mine[0];
    if (x <= value) ++mine[1];
  }
  std::int64_t global[3] = {0, 0, 0};
  TrAllreduce(tr, mine, global, 3, Datatype::kInt64, ReduceOp::kSum, tag);
  // Identical global inputs on every rank, so no verdict broadcast needed.
  return global[0] == less && global[1] == less_equal && less <= k &&
         k < less_equal && less_equal <= global[2];
}

bool VerifyTopK(Transport& tr, std::span<const double> local, std::int64_t k,
                std::span<const double> topk, int root, int tag) {
  const std::int64_t n_local = static_cast<std::int64_t>(local.size());
  std::int64_t n_total = 0;
  TrAllreduce(tr, &n_local, &n_total, 1, Datatype::kInt64, ReduceOp::kSum,
              tag);
  const std::int64_t expect = std::min(k < 0 ? 0 : k, n_total);

  // The root publishes {m, sorted?, threshold}; a wrong size or ordering
  // fails immediately on every rank.
  double head[3] = {0.0, 0.0, 0.0};
  if (tr.Rank() == root) {
    head[0] = static_cast<double>(topk.size());
    head[1] = std::is_sorted(topk.begin(), topk.end()) ? 1.0 : 0.0;
    head[2] = topk.empty() ? 0.0 : topk.back();
  }
  mpisim::WaitUntil(tr.Ibcast(head, 3, Datatype::kFloat64, root, tag + 2),
                    "VerifyTopK: head bcast");
  const auto m = static_cast<std::int64_t>(head[0]);
  if (m != expect || head[1] == 0.0) return false;
  if (m == 0) return true;
  const double threshold = head[2];

  // The strictly-below-threshold part of the input must match the
  // strictly-below part of topk element for element (count + the same
  // order-independent hash the sort fingerprint uses); the remaining
  // slots must be threshold copies within its global multiplicity.
  std::int64_t counts[2] = {0, 0};  // {#< threshold, #== threshold}
  std::uint64_t hash = 0;
  for (const double x : local) {
    if (x < threshold) {
      ++counts[0];
      hash += Mix(BitsOf(x));
    } else if (x == threshold) {
      ++counts[1];
    }
  }
  std::int64_t g_counts[2] = {0, 0};
  std::uint64_t g_hash = 0;
  TrAllreduce(tr, counts, g_counts, 2, Datatype::kInt64, ReduceOp::kSum, tag);
  TrAllreduce(tr, &hash, &g_hash, 1, Datatype::kUint64, ReduceOp::kSum, tag);

  std::uint8_t ok = 1;
  if (tr.Rank() == root) {
    std::int64_t t_below = 0;
    std::uint64_t t_hash = 0;
    for (const double y : topk) {
      if (y < threshold) {
        ++t_below;
        t_hash += Mix(BitsOf(y));
      }
    }
    const std::int64_t t_ties = m - t_below;
    ok = (g_counts[0] == t_below && g_hash == t_hash && t_ties >= 1 &&
          t_ties <= g_counts[1])
             ? 1
             : 0;
  }
  mpisim::WaitUntil(tr.Ibcast(&ok, 1, Datatype::kByte, root, tag + 3),
                    "VerifyTopK: verdict bcast");
  return ok != 0;
}

bool VerifyQuantile(Transport& tr, std::span<const double> local, double q,
                    double value, std::int64_t rank_error_bound, int tag) {
  std::int64_t mine[3] = {0, 0, static_cast<std::int64_t>(local.size())};
  for (const double x : local) {
    if (x < value) ++mine[0];
    if (x <= value) ++mine[1];
  }
  std::int64_t global[3] = {0, 0, 0};
  TrAllreduce(tr, mine, global, 3, Datatype::kInt64, ReduceOp::kSum, tag);
  const std::int64_t n = global[2];
  if (n == 0) return true;  // nothing to answer; any value is as good
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  const auto target = static_cast<std::int64_t>(
      std::llround(clamped * static_cast<double>(n - 1)));
  // `value` may be interpolated (not a data element); its plausible rank
  // interval is [#< value, #<= value]. The nearest-rank target must fall
  // within the declared error bound of that interval.
  return target + rank_error_bound >= global[0] &&
         target <= global[1] + rank_error_bound;
}

}  // namespace jsort
