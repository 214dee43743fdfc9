#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "mpisim/runtime.hpp"

namespace perfbench {

Tracer::Tracer(int ranks)
    : epoch_(std::chrono::steady_clock::now()),
      lanes_(static_cast<std::size_t>(ranks) + 1),
      next_(static_cast<std::size_t>(ranks) + 1, 1) {}

std::vector<Span>& Tracer::Lane(int rank) {
  return lanes_.at(static_cast<std::size_t>(rank + 1));
}

std::uint64_t Tracer::NextId(int rank) {
  const std::uint64_t lane = static_cast<std::uint64_t>(rank + 1);
  return (lane << 40) | next_.at(static_cast<std::size_t>(rank + 1))++;
}

void Tracer::Record(const Span& span) { Lane(span.rank).push_back(span); }

double Tracer::WallNowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<Span> Tracer::All() const {
  std::vector<Span> all;
  for (const auto& lane : lanes_) all.insert(all.end(), lane.begin(), lane.end());
  return all;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  auto emit = [&](const Span& s, int pid, int tid, double begin, double end) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"id\":%llu,\"parent\":%llu}}",
                 first ? "" : ",\n", s.name, s.layer, pid, tid, begin,
                 end - begin, static_cast<long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  };
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      if (!std::isnan(s.wall_begin_us)) {
        emit(s, 0, s.rank + 1, s.wall_begin_us, s.wall_end_us);
      }
      if (!std::isnan(s.vtime_begin) && s.rank >= 0) {
        emit(s, 1, s.rank, s.vtime_begin, s.vtime_end);
      }
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, const char* layer,
                       int rank, std::int64_t op, std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.layer = layer;
  span_.rank = rank;
  span_.op = op;
  span_.parent = parent;
  span_.id = tracer_->NextId(rank);
  if (rank >= 0) span_.vtime_begin = mpisim::Ctx().clock.Now();
  span_.wall_begin_us = tracer_->WallNowUs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.wall_end_us = tracer_->WallNowUs();
  if (span_.rank >= 0) span_.vtime_end = mpisim::Ctx().clock.Now();
  tracer_->Record(span_);
}

namespace {

/// Length of the union of [b, e) intervals clipped to [lo, hi).
double CoveredLength(std::vector<std::pair<double, double>> iv, double lo,
                     double hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double cur_b = 0.0, cur_e = 0.0;
  bool open = false;
  for (auto [b, e] : iv) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) covered += cur_e - cur_b;
  return covered;
}

}  // namespace

std::map<std::string, LayerTime> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    LayerTime& lt = out[s.layer];
    const auto it = children.find(s.id);
    std::vector<std::pair<double, double>> wall_iv, vtime_iv;
    if (it != children.end()) {
      for (const Span* c : it->second) {
        if (!std::isnan(c->wall_begin_us)) {
          wall_iv.emplace_back(c->wall_begin_us, c->wall_end_us);
        }
        if (c->rank == s.rank && !std::isnan(c->vtime_begin)) {
          vtime_iv.emplace_back(c->vtime_begin, c->vtime_end);
        }
      }
    }
    if (!std::isnan(s.wall_begin_us)) {
      lt.self_wall_us += (s.wall_end_us - s.wall_begin_us) -
                         CoveredLength(wall_iv, s.wall_begin_us, s.wall_end_us);
    }
    if (!std::isnan(s.vtime_begin)) {
      lt.self_vtime += (s.vtime_end - s.vtime_begin) -
                       CoveredLength(vtime_iv, s.vtime_begin, s.vtime_end);
    }
  }
  return out;
}

}  // namespace perfbench
