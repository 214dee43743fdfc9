// In-memory spans recorded by the benchmark around each call it makes into
// a layer of the program (mpisim, rbc, topo, sort, query, sched). Spans
// carry both clocks: wall time, relative to the tracer's epoch, and model
// time on the recording rank's virtual clock. They stay in memory until
// the run ends and are then folded into per-layer self times and written
// as a Chrome trace-event file (loadable in Perfetto / chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

struct Span {
  const char* name = "";
  const char* layer = "";
  int rank = -1;            // -1 = the benchmark's own (driver) thread
  std::int64_t op = -1;     // benchmark op id the span belongs to
  std::uint64_t id = 0;     // unique, non-zero
  std::uint64_t parent = 0; // 0 = root
  double wall_begin_us = kUnset;
  double wall_end_us = kUnset;
  double vtime_begin = kUnset;  // model us on `rank`'s clock
  double vtime_end = kUnset;
};

/// One append-only lane per thread (lane 0: driver, lane r + 1: rank r).
/// A lane is only touched by the thread currently playing its role; rank
/// threads of successive Runtime::Run calls are ordered by thread join.
class Tracer {
 public:
  explicit Tracer(int ranks);
  // Rank threads hold the tracer's address while a run is in flight.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t NextId(int rank);
  void Record(const Span& span);
  double WallNowUs() const;
  std::vector<Span> All() const;
  /// Writes every span as a complete ("X") event: pid 0 holds wall-clock
  /// spans (tid = rank + 1, 0 = driver), pid 1 model-time spans (tid = rank).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span>& Lane(int rank);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::vector<Span>> lanes_;
  std::vector<std::uint64_t> next_;
};

/// RAII span; a no-op when `tracer` is null. On a rank thread it also
/// records the rank's virtual clock at both ends.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer, int rank,
             std::int64_t op, std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

struct LayerTime {
  double self_wall_us = 0.0;
  double self_vtime = 0.0;
};

/// Self time per layer: each span's duration minus the part of its
/// interval covered by its children. Wall time counts children on any
/// thread; model time counts only children on the same rank (each rank
/// has its own virtual clock). Spans without a clock contribute nothing
/// on that clock.
std::map<std::string, LayerTime> SelfTimeByLayer(const std::vector<Span>& spans);

}  // namespace perfbench
