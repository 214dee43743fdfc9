#include "mpisim/mailbox.hpp"

#include <algorithm>

namespace mpisim {

void Mailbox::Post(Message&& m) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(m));
  }
  cv_.notify_all();
}

namespace {

/// First queued message matching the pattern (mu_ held); const and
/// mutable queues share the one scan.
template <typename Queue>
auto FindIn(Queue& queue, std::uint64_t ctx, int src, int tag,
            const SourceRange& range) {
  return std::find_if(queue.begin(), queue.end(), [&](const Message& m) {
    return m.env.Matches(ctx, src, tag, range);
  });
}

/// Clears Mailbox::parked_ on every exit path. Declared after the lock,
/// so the flag is reset while mu_ is still held -- the invariant the
/// deadlock detector's parked proof relies on.
struct ParkScope {
  explicit ParkScope(bool& flag) : flag_(flag) { flag_ = true; }
  ~ParkScope() { flag_ = false; }
  bool& flag_;
};
}  // namespace

std::optional<Message> Mailbox::TryPop(std::uint64_t ctx, int src, int tag,
                                       const SourceRange& range) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = FindIn(queue_, ctx, src, tag, range);
  if (it == queue_.end()) return std::nullopt;
  Message m = std::move(*it);
  queue_.erase(it);
  return m;
}

bool Mailbox::TryPeek(std::uint64_t ctx, int src, int tag, Envelope* env,
                      std::size_t* bytes, const SourceRange& range) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = FindIn(queue_, ctx, src, tag, range);
  if (it == queue_.end()) return false;
  if (env != nullptr) *env = it->env;
  if (bytes != nullptr) *bytes = it->payload.size();
  return true;
}

Message Mailbox::PopBlocking(std::uint64_t ctx, int src, int tag,
                             std::chrono::milliseconds timeout,
                             const SourceRange& range) {
  std::unique_lock<std::mutex> lock(mu_);
  ParkScope park(parked_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (aborted_) throw AbortedError(abort_origin_);
    auto it = FindIn(queue_, ctx, src, tag, range);
    if (it != queue_.end()) {
      Message m = std::move(*it);
      queue_.erase(it);
      return m;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      throw DeadlockError(
          "mpisim: blocking receive/probe timed out (suspected deadlock)");
    }
  }
}

void Mailbox::PeekBlocking(std::uint64_t ctx, int src, int tag, Envelope* env,
                           std::size_t* bytes,
                           std::chrono::milliseconds timeout,
                           const SourceRange& range) {
  std::unique_lock<std::mutex> lock(mu_);
  ParkScope park(parked_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (aborted_) throw AbortedError(abort_origin_);
    auto it = FindIn(queue_, ctx, src, tag, range);
    if (it != queue_.end()) {
      if (env != nullptr) *env = it->env;
      if (bytes != nullptr) *bytes = it->payload.size();
      return;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      throw DeadlockError(
          "mpisim: blocking probe timed out (suspected deadlock)");
    }
  }
}

void Mailbox::Abort(int origin_rank) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    if (abort_origin_ < 0) abort_origin_ = origin_rank;
  }
  cv_.notify_all();
}

void Mailbox::ResetAbort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = false;
  abort_origin_ = -1;
}

bool Mailbox::HasParkedWaiter() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_;
}

std::size_t Mailbox::QueuedMessages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<Envelope> Mailbox::Snapshot(std::size_t max,
                                        std::size_t* total) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (total != nullptr) *total = queue_.size();
  std::vector<Envelope> envs;
  envs.reserve(std::min(max, queue_.size()));
  for (const Message& m : queue_) {
    if (envs.size() >= max) break;
    envs.push_back(m.env);
  }
  return envs;
}

}  // namespace mpisim
