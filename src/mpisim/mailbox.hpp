// Per-rank mailbox with MPI-style envelope matching.
//
// Delivery into a mailbox is FIFO in posting order; matching scans the
// queue front-to-back, which yields the MPI non-overtaking guarantee:
// two messages from the same sender with envelopes matching the same
// receive are received in send order. Every matching call takes an
// optional SourceRange: a filtered wildcard match finds the first queued
// message whose source lies in the range, skipping foreign ones queued
// ahead of it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "mpisim/error.hpp"
#include "mpisim/message.hpp"

namespace mpisim {

class Mailbox {
 public:
  /// Delivers a message (called from the sender's thread).
  void Post(Message&& m);

  /// Removes and returns the first message matching (ctx, src, tag), or
  /// nullopt if none is queued. Non-blocking.
  std::optional<Message> TryPop(std::uint64_t ctx, int src, int tag,
                                const SourceRange& range = {});

  /// Returns a copy of the envelope and the payload byte count of the first
  /// matching message without removing it. Non-blocking probe.
  bool TryPeek(std::uint64_t ctx, int src, int tag, Envelope* env,
               std::size_t* bytes, const SourceRange& range = {}) const;

  /// Blocks until a matching message arrives, then removes and returns it.
  /// Throws AbortedError if the runtime aborted, DeadlockError on timeout.
  Message PopBlocking(std::uint64_t ctx, int src, int tag,
                      std::chrono::milliseconds timeout,
                      const SourceRange& range = {});

  /// Blocks until a matching message arrives; returns its envelope/size
  /// without removing it (blocking probe).
  void PeekBlocking(std::uint64_t ctx, int src, int tag, Envelope* env,
                    std::size_t* bytes, std::chrono::milliseconds timeout,
                    const SourceRange& range = {});

  /// Marks the runtime as aborted and wakes all blocked waiters; they throw
  /// AbortedError naming `origin_rank` (the world rank whose failure started
  /// the abort) when it is known.
  void Abort(int origin_rank = -1);

  /// Clears the aborted flag (a fresh Runtime::Run after a failed one).
  void ResetAbort();

  /// Number of queued (undelivered) messages; diagnostics only.
  std::size_t QueuedMessages() const;

  /// Copies up to `max` queued envelopes (front of the queue first) and
  /// reports the total queue length; deadlock forensics only.
  std::vector<Envelope> Snapshot(std::size_t max, std::size_t* total) const;

  /// True while the owning rank's thread is inside PopBlocking or
  /// PeekBlocking. The flag is cleared under mu_ before either call
  /// returns (or throws), so observing it true together with "no
  /// matching queued message" proves the waiter is parked in the cv wait
  /// -- the deterministic half of proactive deadlock detection
  /// (waitgraph.hpp).
  bool HasParkedWaiter() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool aborted_ = false;
  int abort_origin_ = -1;
  bool parked_ = false;
};

}  // namespace mpisim
