// Order statistics of the benchmark's per-op samples.
//
// Timings are reported as the median and a tail percentile. The tail is
// only trusted when at least ten samples lie beyond it, so a p90 needs at
// least 100 samples; with fewer, the reported tail falls back to the
// highest percentile that still has ten samples beyond it (never below the
// median).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples:
/// the smallest rank whose share of samples is at least q.
inline std::size_t NearestRankIndex(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

/// Nearest-rank percentile of `v` (0 when empty).
inline double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[NearestRankIndex(v.size(), q) - 1];
}

inline double Median(std::vector<double> v) { return NearestRank(std::move(v), 0.5); }

/// Quantile actually reported for a requested tail `q` over n samples:
/// q itself when at least kTailSamplesBeyond samples follow its nearest
/// rank, else the highest rank that has them, but never below the median.
inline double TailQuantileUsed(std::size_t n, double q) {
  if (n == 0) return q;
  std::size_t rank = NearestRankIndex(n, q);
  const std::size_t cap = n > kTailSamplesBeyond ? n - kTailSamplesBeyond : 0;
  rank = std::max(std::min(rank, cap), NearestRankIndex(n, 0.5));
  return static_cast<double>(rank) / static_cast<double>(n);
}

/// The tail percentile under the ten-samples-beyond rule.
inline double TailPercentile(std::vector<double> v, double q) {
  const double used = TailQuantileUsed(v.size(), q);
  return NearestRank(std::move(v), used);
}

inline double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

inline double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

}  // namespace perfbench
