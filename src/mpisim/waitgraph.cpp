#include "mpisim/waitgraph.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "mpisim/message.hpp"
#include "mpisim/runtime.hpp"

namespace mpisim {

namespace {

const char* ChannelName(std::uint64_t ctx) {
  switch (ctx % 4) {
    case 0: return "user";
    case 1: return "coll";
    case 2: return "nbc";
    default: return "internal";
  }
}

void DescribePattern(std::ostringstream& os, const WaitPattern& p) {
  os << "comm ctx base " << p.ctx / 4 << " (" << ChannelName(p.ctx)
     << " channel), src ";
  if (p.src == kAnySource) {
    os << "ANY";
    if (p.range != SourceRange{}) {
      os << " in [" << p.range.first << ".." << p.range.last;
      if (p.range.stride != 1) os << " step " << p.range.stride;
      os << "]";
    }
  } else {
    os << p.src;
  }
  os << ", tag ";
  if (p.tag == kAnyTag) {
    os << "ANY";
  } else {
    os << p.tag;
  }
}

void DescribeRecord(std::ostringstream& os, const WaitRecord& rec) {
  os << "blocked in " << rec.what;
  if (rec.patterns.empty()) {
    os << " (wait patterns unknown)";
  } else {
    os << " on ";
    for (std::size_t i = 0; i < rec.patterns.size(); ++i) {
      if (i != 0) os << "; ";
      DescribePattern(os, rec.patterns[i]);
    }
    if (!rec.known) os << " (may also progress without a message)";
  }
  os << " [vtime " << rec.vtime << "]";
}

}  // namespace

void WaitRegistry::Register(int rank, WaitRecord rec) {
  const int p = rt_->options().num_ranks;
  std::unique_lock<std::mutex> lock(mu_);
  if (stacks_.empty()) stacks_.resize(static_cast<std::size_t>(p));
  auto& stack = stacks_[static_cast<std::size_t>(rank)];
  if (stack.empty()) ++blocked_ranks_;
  stack.push_back(std::move(rec));
  if (blocked_ranks_ < p || !AllWaitsUnsatisfiableLocked()) return;

  // Tentative deadlock: every rank is registered-blocked with known,
  // currently unsatisfiable patterns. Demand a deterministic proof
  // before raising: every *other* rank must additionally be parked in
  // its mailbox's cv wait. The mailbox clears the parked flag under its
  // own lock before any blocking call returns, so a rank whose wait just
  // completed (popped its message, guard not yet unregistered) is never
  // counted as stuck, however long it stays descheduled. With all p
  // ranks blocked in plain receives/probes no rank can post a message,
  // so parked + no matching message cannot spontaneously resolve. A rank
  // that registered but has not reached the cv wait yet gets a short
  // grace period; if the proof still does not close, stand down -- the
  // wall-clock timeout forensics cover any deadlock missed here.
  const auto timeout = rt_->options().deadlock_timeout;
  const auto grace = std::max<std::chrono::milliseconds>(
      std::chrono::milliseconds(2),
      std::min(std::chrono::milliseconds(50), timeout / 4));
  const auto until = std::chrono::steady_clock::now() + grace;
  while (!AllPeersParkedLocked(rank)) {
    if (std::chrono::steady_clock::now() >= until) return;  // unproven
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    lock.lock();
    if (blocked_ranks_ < p || !AllWaitsUnsatisfiableLocked()) {
      return;  // progress happened; not a deadlock
    }
  }

  // Proven: no rank can ever be woken. Dump the wait graph, wake all
  // cv-blocked ranks (they unwind with AbortedError naming this rank as
  // the origin), and raise from the rank that completed the cycle.
  std::string waits = DescribeWaitsLocked();
  // This rank's guard never constructs (Register throws), so unwind its
  // own registration here.
  stack.pop_back();
  if (stack.empty()) --blocked_ranks_;
  lock.unlock();

  std::ostringstream header;
  header << "mpisim: deadlock detected (no runnable rank, non-empty wait "
            "set; proven by rank "
         << rank << " before the " << timeout.count() << " ms timeout)";
  std::string report = BuildDeadlockReportFromWaits(*rt_, header.str(), waits);
  rt_->MarkAborted(rank);
  for (int r = 0; r < p; ++r) rt_->MailboxOf(r).Abort(rank);
  throw DeadlockError(report);
}

void WaitRegistry::Unregister(int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stacks_.empty()) return;
  auto& stack = stacks_[static_cast<std::size_t>(rank)];
  if (stack.empty()) return;
  stack.pop_back();
  if (stack.empty()) --blocked_ranks_;
}

void WaitRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stacks_.clear();
  blocked_ranks_ = 0;
}

bool WaitRegistry::AllWaitsUnsatisfiableLocked() {
  const int p = rt_->options().num_ranks;
  if (static_cast<int>(stacks_.size()) < p) return false;
  for (int r = 0; r < p; ++r) {
    const auto& stack = stacks_[static_cast<std::size_t>(r)];
    if (stack.empty()) return false;
    const WaitRecord& top = stack.back();  // innermost wait governs
    if (!top.known || top.patterns.empty()) return false;
    // Conjunctive patterns: the rank is stuck iff at least one pattern
    // has no matching queued message.
    bool stuck = false;
    for (const WaitPattern& pat : top.patterns) {
      if (!rt_->MailboxOf(r).TryPeek(pat.ctx, pat.src, pat.tag, nullptr,
                                     nullptr, pat.range)) {
        stuck = true;
        break;
      }
    }
    if (!stuck) return false;
  }
  return true;
}

bool WaitRegistry::AllPeersParkedLocked(int self) {
  // Order matters for soundness: the unsatisfiable check (no matching
  // queued message) ran first in the same mu_ critical section, and with
  // every rank registered in a known blocking wait no rank can post, so
  // a waiter observed parked here cannot wake before we finish. The
  // registering rank itself is exempt: it is still inside Register,
  // about to park on a pattern nobody can satisfy.
  const int p = rt_->options().num_ranks;
  for (int r = 0; r < p; ++r) {
    if (r == self) continue;
    if (!rt_->MailboxOf(r).HasParkedWaiter()) return false;
  }
  return true;
}

std::string WaitRegistry::DescribeWaits() {
  std::lock_guard<std::mutex> lock(mu_);
  return DescribeWaitsLocked();
}

std::string WaitRegistry::DescribeWaitsLocked() {
  std::ostringstream os;
  const int p = rt_->options().num_ranks;
  for (int r = 0; r < p; ++r) {
    os << "  rank " << r << "/" << p << ": ";
    if (static_cast<std::size_t>(r) >= stacks_.size() ||
        stacks_[static_cast<std::size_t>(r)].empty()) {
      os << "not blocked in the substrate (running, finished, or failed)";
    } else {
      const auto& stack = stacks_[static_cast<std::size_t>(r)];
      for (std::size_t i = stack.size(); i-- > 0;) {
        DescribeRecord(os, stack[i]);
        if (i != 0) os << "; outer: ";
      }
    }
    os << "\n";
  }
  return os.str();
}

ScopedWait::ScopedWait(WaitRecord rec) {
  if (!InsideRank()) return;
  RankContext& rc = Ctx();
  rec.vtime = rc.clock.Now();
  WaitRegistry& registry = rc.runtime->Waits();
  const int rank = rc.world_rank;
  registry.Register(rank, std::move(rec));  // may throw DeadlockError
  registry_ = &registry;
  rank_ = rank;
}

ScopedWait::~ScopedWait() {
  if (registry_ != nullptr) registry_->Unregister(rank_);
}

std::string BuildDeadlockReportFromWaits(Runtime& rt,
                                         const std::string& header,
                                         const std::string& waits) {
  std::ostringstream os;
  os << header << "\nper-rank wait graph:\n" << waits;
  os << "pending mailbox contents:\n";
  const int p = rt.options().num_ranks;
  for (int r = 0; r < p; ++r) {
    std::size_t total = 0;
    const auto envs = rt.MailboxOf(r).Snapshot(6, &total);
    os << "  rank " << r << "/" << p << ": " << total << " queued message"
       << (total == 1 ? "" : "s");
    if (!envs.empty()) {
      os << " [";
      for (std::size_t i = 0; i < envs.size(); ++i) {
        if (i != 0) os << ", ";
        os << "from world rank " << envs[i].source_global << " ctx base "
           << envs[i].context / 4 << "/" << ChannelName(envs[i].context)
           << " tag " << envs[i].tag;
      }
      if (total > envs.size()) os << ", ...+" << total - envs.size();
      os << "]";
    }
    os << "\n";
  }
  return os.str();
}

std::string BuildDeadlockReport(Runtime& rt, const std::string& header) {
  return BuildDeadlockReportFromWaits(rt, header,
                                      rt.Waits().DescribeWaits());
}

}  // namespace mpisim
