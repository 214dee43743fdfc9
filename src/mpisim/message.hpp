// Message envelope and payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mpisim {

/// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG. User tags must be
/// non-negative.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Source filter of a wildcard match: the communicator ranks first,
/// first + stride, ..., up to last. RBC passes its range here, so a
/// wildcard probe or receive on one range skips queued messages of an
/// overlapping range's members (Section V-C "Probing"). The default
/// admits every source.
struct SourceRange {
  int first = 0;
  int last = std::numeric_limits<int>::max();
  int stride = 1;

  bool Contains(int r) const {
    return r >= first && r <= last && (r - first) % stride == 0;
  }
  bool operator==(const SourceRange&) const = default;
};

/// Matching header of a message. `context` identifies the communicator
/// channel (user p2p, blocking-collective, or nonblocking-collective
/// subchannel of one communicator); `source` is the sender's rank *within
/// that communicator*.
struct Envelope {
  std::uint64_t context = 0;
  int source = 0;         // rank of the sender in the communicator
  int source_global = 0;  // world rank of the sender (for diagnostics)
  int tag = 0;

  bool Matches(std::uint64_t ctx, int src, int tg,
               const SourceRange& range = {}) const {
    return context == ctx && (src == kAnySource || source == src) &&
           (tg == kAnyTag || tag == tg) && range.Contains(source);
  }
};

/// A message in flight: envelope + owned payload + the virtual timestamp at
/// which the sender finished injecting it (single-ported model).
struct Message {
  Envelope env;
  std::vector<std::byte> payload;
  double timestamp = 0.0;
};

}  // namespace mpisim
