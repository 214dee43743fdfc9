#include "driver.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <utility>

#include "rbc/rbc.hpp"
#include "sched/service.hpp"
#include "sort/jsort.hpp"
#include "stats.hpp"
#include "topo/topology.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The operating point of every workload: the paper's p = 64 with 16384
// elements per rank for the bulk sorts.
constexpr int kRanks = 64;
constexpr std::int64_t kQuota = 16384;
// Jobs per SortService run of service-mix. Job latency does not depend on
// the run length (measured from 100 to 2400 jobs; see README.md), but
// jobs_per_vsec does: a run's makespan ends with the drain after the last
// arrival, whose share shrinks as runs get longer. 600 jobs keeps that
// share small and still gives about ten runs in a 30 s budget.
constexpr int kServiceBatchJobs = 600;
constexpr int kSetupReps = 60;
constexpr int kSetupWarmups = 3;
constexpr int kLaunchReps = 15;
constexpr int kMinOps = 3;
// The first op of a run pays lazy set-up (thread stacks, allocator arenas,
// page faults) and takes up to twice as long; it is checked and counted
// but left out of the timing samples.
constexpr int kWarmupOps = 1;
// Turns a hang (for example a wildcard probe that never matches) into a
// DeadlockError inside the op instead of stalling the run. A sort op takes
// well under a second of wall time even with 64 rank threads on 4 cores.
constexpr std::chrono::milliseconds kDeadlockTimeout{5000};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

bool IsSort(Workload w) { return w != Workload::kServiceMix; }

mpisim::Runtime::Options MachineOptions(Workload w, std::uint64_t seed) {
  mpisim::Runtime::Options o;
  o.num_ranks = kRanks;
  o.seed = OpSeed(seed, -1);
  o.deadlock_timeout = kDeadlockTimeout;
  if (w == Workload::kMultilevelHier) {
    // Two-level machine of 8 nodes x 8 ranks: the flat alpha/beta inside a
    // node, 25x the startup and 4x the per-word cost between nodes.
    o.cost.intra_alpha = o.cost.alpha;
    o.cost.intra_beta = o.cost.beta;
    o.cost.inter_alpha = 25.0 * o.cost.alpha;
    o.cost.inter_beta = 4.0 * o.cost.beta;
    o.topology = topo::Topology::Uniform(kRanks, 8);
  }
  return o;
}

jsort::InputKind SortInput(Workload w) {
  return w == Workload::kJQuickBulk ? jsort::InputKind::kUniform
                                    : jsort::InputKind::kZipf;
}

jsort::sched::JobStreamParams ServiceParams() {
  jsort::sched::JobStreamParams p;
  p.jobs = kServiceBatchJobs;
  p.mean_interarrival = 40.0;  // model us: 25k jobs per model second
  p.min_width = 1;
  p.max_width = 8;
  p.min_n = 128;
  p.max_n = 2048;
  p.query_fraction = 0.5;
  return p;
}

jsort::sched::ServiceConfig ServiceCfg() {
  jsort::sched::ServiceConfig cfg;
  cfg.backend = jsort::Backend::kRbc;
  cfg.scheduler.policy = jsort::sched::AdmissionPolicy::kFifo;
  cfg.scheduler.allocation = jsort::sched::RangeAllocator::Policy::kFirstFit;
  cfg.verify = true;
  return cfg;
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t HashIn(std::uint64_t h, std::uint64_t v) { return Mix(h ^ v); }

std::uint64_t Bits(double d) {
  std::uint64_t u = 0;
  static_assert(sizeof u == sizeof d);
  std::memcpy(&u, &d, sizeof u);
  return u;
}

mpisim::Stats Delta(const mpisim::Stats& after, const mpisim::Stats& before) {
  mpisim::Stats d;
  d.messages_sent = after.messages_sent - before.messages_sent;
  d.bytes_sent = after.bytes_sent - before.bytes_sent;
  d.messages_received = after.messages_received - before.messages_received;
  d.bytes_received = after.bytes_received - before.bytes_received;
  d.max_message_bytes = after.max_message_bytes;
  d.inter_messages_sent = after.inter_messages_sent - before.inter_messages_sent;
  d.inter_bytes_sent = after.inter_bytes_sent - before.inter_bytes_sent;
  d.inter_messages_received =
      after.inter_messages_received - before.inter_messages_received;
  d.inter_bytes_received = after.inter_bytes_received - before.inter_bytes_received;
  return d;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Wall seconds of bringing the machine up once: a p = 64 runtime, the world
// RBC communicator and transport on every rank, a barrier, and for
// service-mix the job stream and the service object.
double SetupOnce(const Args& args) {
  const auto t0 = Clock::now();
  mpisim::Runtime rt(MachineOptions(args.workload, args.seed));
  std::unique_ptr<jsort::sched::SortService> service;
  if (!IsSort(args.workload)) {
    service = std::make_unique<jsort::sched::SortService>(
        kRanks,
        jsort::sched::MakeJobStream(kRanks, ServiceParams(),
                                    OpSeed(args.seed, 0)),
        ServiceCfg());
  }
  rt.Run([](mpisim::Comm& world) {
    rbc::Comm rc;
    rbc::Create_RBC_Comm(world, &rc);
    const auto tr = jsort::MakeTransport(jsort::Backend::kRbc, world);
    mpisim::Barrier(world);
  });
  return Seconds(Clock::now() - t0);
}

// setup_s: the median of kSetupReps set-ups spread evenly over the run
// (between ops), so a burst of load on the host moves a few samples rather
// than the median. The first kSetupWarmups pay cold-start costs and are
// dropped.
class SetupSampler {
 public:
  explicit SetupSampler(const Args& args) : args_(args) {
    for (int k = 0; k < kSetupWarmups; ++k) SetupOnce(args_);
  }
  // Takes samples until `done` (the share of the budget spent) of them are in.
  void CatchUp(double done) {
    const double due = kSetupReps * std::min(done, 1.0);
    while (static_cast<double>(samples_.size()) < due) {
      samples_.push_back(SetupOnce(args_));
    }
  }
  double Result() {
    CatchUp(1.0);
    return Median(samples_);
  }

 private:
  const Args& args_;
  std::vector<double> samples_;
};

// Median wall ms of an empty Runtime::Run (spawning and joining 64 rank
// threads).
double MeasureLaunch(OpRunner& runner) {
  std::vector<double> reps;
  for (int k = 0; k < kLaunchReps; ++k) {
    const auto t0 = Clock::now();
    runner.Run([](mpisim::Comm&) {});
    reps.push_back(Ms(Clock::now() - t0));
  }
  return Median(reps);
}

// ---------------------------------------------------------------------------
// Sort workloads: one sort of fresh inputs per op.

struct RankRec {
  double sort_vtime = 0.0;
  double check_vtime = 0.0;
  double create_wall_us = 0.0;
  mpisim::Stats delta{};
  std::int64_t levels = 0;
  std::int64_t janus = 0;
  std::int64_t payload_messages = 0;
  std::int64_t segments = 0;
  std::int64_t elements_sent = 0;
  std::int64_t xinter_messages = 0;
  std::int64_t xinter_bytes = 0;
  std::int64_t out_count = 0;
  bool ok = false;
};

// Outcome counts of one phase (a stretch of ops run with or without
// tracing).
struct PhaseCounts {
  std::int64_t attempted = 0;  // ops (service-mix: jobs)
  std::int64_t failed = 0;
  std::int64_t incorrect = 0;
  std::int64_t next = 0;       // op (batch) id a following phase starts at
};

struct SortPhase : PhaseCounts {
  std::vector<double> vtime, wall_ms, cycle_ms, barrier_us, check_ms,
      check_vtime, create_us, messages, bytes, max_msg, inter_msgs,
      inter_bytes, intra_msgs, levels, janus, payload, segments, elements,
      xinter_msgs, xinter_bytes, imbalance;
};

SortPhase RunSortPhase(OpRunner& runner, const Args& args, double seconds,
                       std::int64_t first_op, Tracer* tracer,
                       SetupSampler* setup) {
  const bool jquick = args.workload == Workload::kJQuickBulk;
  const jsort::InputKind kind = SortInput(args.workload);
  // The topo counters only mean something on a machine with nodes.
  const bool two_level = runner.runtime().options().topology.NodeCount() > 1;
  SortPhase ph;
  std::vector<RankRec> recs(kRanks);
  struct {
    double barrier_us = 0.0, op_ms = 0.0, check_ms = 0.0;
  } r0;
  std::int64_t op = first_op;
  std::uint64_t op_seed = 0;
  std::uint64_t parent = 0;

  const auto rank_main = [&](mpisim::Comm& world) {
    const int r = world.Rank();
    RankRec& rec = recs[static_cast<std::size_t>(r)];
    rec = RankRec{};
    mpisim::RankContext& ctx = mpisim::Ctx();
    const auto barrier = [&] {
      ScopedSpan s(tracer, "mpisim.barrier", "mpisim", r, op, parent);
      mpisim::Barrier(world);
    };
    std::vector<double> input;
    {
      ScopedSpan s(tracer, "sort.generate_input", "sort", r, op, parent);
      input = jsort::GenerateInput(kind, r, kRanks, kQuota, op_seed);
    }
    rbc::Comm rc;
    std::shared_ptr<jsort::Transport> tr;
    {
      ScopedSpan s(tracer, "rbc.create", "rbc", r, op, parent);
      const auto c0 = Clock::now();
      rbc::Create_RBC_Comm(world, &rc);
      tr = jsort::MakeTransport(jsort::Backend::kRbc, world);
      rec.create_wall_us = Us(Clock::now() - c0);
    }
    // Oracle, part 1 (outside the timed region): input fingerprint.
    barrier();
    const auto ta = Clock::now();
    double cv = ctx.clock.Now();
    jsort::Fingerprint fp_in;
    {
      ScopedSpan s(tracer, "rbc.check_input", "rbc", r, op, parent);
      fp_in = jsort::GlobalFingerprint(input, rc);
    }
    rec.check_vtime = ctx.clock.Now() - cv;
    barrier();
    const auto tb = Clock::now();
    barrier();
    // Timed region: barrier to barrier around the sort call.
    const auto t0 = Clock::now();
    ctx.stats.max_message_bytes = 0;
    const mpisim::Stats s0 = ctx.stats;
    const double v0 = ctx.clock.Now();
    std::vector<double> out;
    if (jquick) {
      ScopedSpan s(tracer, "sort.jquick", "sort", r, op, parent);
      jsort::JQuickConfig cfg;
      cfg.seed = op_seed;
      jsort::JQuickStats st;
      out = jsort::JQuickSort(tr, std::move(input), cfg, &st);
      rec.levels = st.distributed_levels;
      rec.janus = st.janus_episodes;
      rec.payload_messages = st.messages_sent;
      rec.segments = st.segments_sent;
      rec.elements_sent = st.elements_sent;
    } else {
      ScopedSpan s(tracer, "sort.multilevel", "sort", r, op, parent);
      jsort::MultilevelConfig cfg;
      cfg.k = 0;  // one group per node
      cfg.seed = op_seed;
      jsort::MultilevelStats st;
      out = jsort::MultilevelSampleSort(tr, std::move(input), cfg, &st);
      rec.levels = st.levels;
      rec.payload_messages = st.messages_sent;
      rec.segments = st.segments_sent;
      for (const auto& ls : st.level_stats) {
        rec.elements_sent += ls.elements_sent;
        rec.xinter_messages += ls.inter_messages;
        rec.xinter_bytes += ls.inter_bytes;
      }
    }
    rec.sort_vtime = ctx.clock.Now() - v0;
    rec.delta = Delta(ctx.stats, s0);
    rec.out_count = static_cast<std::int64_t>(out.size());
    barrier();
    const auto t1 = Clock::now();
    // Oracle, part 2: sortedness, permutation, and JQuick's perfect
    // balance.
    cv = ctx.clock.Now();
    {
      ScopedSpan s(tracer, "rbc.check_output", "rbc", r, op, parent);
      const bool sorted = jsort::IsGloballySorted(out, rc);
      const bool permutation = jsort::GlobalFingerprint(out, rc) == fp_in;
      bool balanced = true;
      if (jquick) {
        const jsort::Balance b = jsort::GlobalBalance(out, rc);
        balanced = b.min_count == kQuota && b.max_count == kQuota;
      }
      rec.ok = sorted && permutation && balanced;
    }
    rec.check_vtime += ctx.clock.Now() - cv;
    barrier();
    if (r == 0) {
      r0.barrier_us = Us(t0 - tb);
      r0.op_ms = Ms(t1 - t0);
      r0.check_ms = Ms(tb - ta) + Ms(Clock::now() - t1);
    }
  };

  const auto start = Clock::now();
  while (ph.attempted < kMinOps + kWarmupOps ||
         Seconds(Clock::now() - start) < seconds) {
    op_seed = OpSeed(args.seed, op);
    runner.runtime().ResetClocksAndStats();
    ScopedSpan op_span(tracer, "bench.op", "bench", -1, op, 0);
    const auto w0 = Clock::now();
    bool ran = false;
    {
      ScopedSpan run_span(tracer, "mpisim.run", "mpisim", -1, op,
                          op_span.id());
      parent = run_span.id();
      ran = runner.Run(rank_main);
    }
    const double run_ms = Ms(Clock::now() - w0);
    if (setup != nullptr) {
      setup->CatchUp(Seconds(Clock::now() - start) / seconds);
    }
    ++ph.attempted;
    ++op;
    const bool warmup = op - first_op <= kWarmupOps && first_op == 0;
    if (!ran) {
      ++ph.failed;
      std::fprintf(stderr, "perfbench: op %lld failed: %s\n",
                   static_cast<long long>(op - 1),
                   runner.last_error().c_str());
      continue;
    }
    double vt = 0.0, check_vt = 0.0, msgs = 0.0, bytes = 0.0, maxb = 0.0,
           imsgs = 0.0, ibytes = 0.0, levels = 0.0, janus = 0.0, pay = 0.0,
           segs = 0.0, elems = 0.0, xm = 0.0, xb = 0.0, create = 0.0;
    std::int64_t max_out = 0;
    bool ok = true;
    for (const RankRec& rec : recs) {
      vt = std::max(vt, rec.sort_vtime);
      check_vt = std::max(check_vt, rec.check_vtime);
      msgs += static_cast<double>(rec.delta.messages_sent);
      bytes += static_cast<double>(rec.delta.bytes_sent);
      maxb = std::max(maxb, static_cast<double>(rec.delta.max_message_bytes));
      imsgs += static_cast<double>(rec.delta.inter_messages_sent);
      ibytes += static_cast<double>(rec.delta.inter_bytes_sent);
      levels = std::max(levels, static_cast<double>(rec.levels));
      janus += static_cast<double>(rec.janus);
      pay += static_cast<double>(rec.payload_messages);
      segs += static_cast<double>(rec.segments);
      elems += static_cast<double>(rec.elements_sent);
      xm += static_cast<double>(rec.xinter_messages);
      xb += static_cast<double>(rec.xinter_bytes);
      create += rec.create_wall_us;
      max_out = std::max(max_out, rec.out_count);
      ok = ok && rec.ok;
    }
    if (!ok) {
      ++ph.incorrect;
      std::fprintf(stderr, "perfbench: op %lld returned a wrong result\n",
                   static_cast<long long>(op - 1));
    }
    if (warmup) continue;
    ph.vtime.push_back(vt);
    ph.wall_ms.push_back(r0.op_ms);
    ph.cycle_ms.push_back(run_ms - r0.check_ms);
    ph.barrier_us.push_back(r0.barrier_us);
    ph.check_ms.push_back(r0.check_ms);
    ph.check_vtime.push_back(check_vt);
    ph.create_us.push_back(create / kRanks);
    ph.messages.push_back(msgs);
    ph.bytes.push_back(bytes);
    ph.max_msg.push_back(maxb);
    ph.inter_msgs.push_back(imsgs);
    ph.inter_bytes.push_back(ibytes);
    ph.intra_msgs.push_back(two_level ? msgs - imsgs : 0.0);
    ph.levels.push_back(levels);
    ph.janus.push_back(janus);
    ph.payload.push_back(pay);
    ph.segments.push_back(segs);
    ph.elements.push_back(elems);
    ph.xinter_msgs.push_back(xm);
    ph.xinter_bytes.push_back(xb);
    ph.imbalance.push_back(static_cast<double>(max_out) / kQuota - 1.0);
  }
  ph.next = op;
  return ph;
}

// Ops completed per wall second of the op cycles (Runtime::Run, input
// generation, communicator creation and the sort; the oracle excluded).
double WallRate(const SortPhase& ph) {
  const double s = Sum(ph.cycle_ms) / 1000.0;
  return s > 0.0 ? static_cast<double>(ph.cycle_ms.size()) / s : 0.0;
}

// ---------------------------------------------------------------------------
// service-mix: SortService runs of kServiceBatchJobs open-loop jobs.

struct ServicePhase : PhaseCounts {
  std::int64_t batches = 0;  // completed service runs
  std::int64_t jobs_done = 0;
  std::vector<double> latency, queue_wait, sort_vtime, select_vtime,
      topk_vtime, quantile_vtime, query_messages, wall_per_job_ms, create_us,
      max_msg, barrier_us;
  double makespan = 0.0, wall_s = 0.0, width_busy = 0.0, split_vtime = 0.0,
         busy_vtime = 0.0, messages = 0.0, bytes = 0.0, waves = 0.0;
};

ServicePhase RunServicePhase(OpRunner& runner, const Args& args,
                             double seconds, std::int64_t first_batch,
                             Tracer* tracer, SetupSampler* setup) {
  using jsort::sched::JobKind;
  ServicePhase ph;
  std::int64_t batch = first_batch;
  std::uint64_t parent = 0;
  jsort::sched::ServiceStats stats;
  std::vector<mpisim::Stats> deltas(kRanks);
  std::vector<double> create_us(kRanks);
  std::vector<std::uint64_t> run_span(kRanks);
  double barrier_us = 0.0;
  jsort::sched::SortService* service = nullptr;

  const auto rank_main = [&](mpisim::Comm& world) {
    const int r = world.Rank();
    const auto ri = static_cast<std::size_t>(r);
    {
      // The service builds its own world transport; this measures the
      // same calls for the rbc layer metric.
      ScopedSpan s(tracer, "rbc.create", "rbc", r, batch, parent);
      const auto c0 = Clock::now();
      rbc::Comm rc;
      rbc::Create_RBC_Comm(world, &rc);
      const auto tr = jsort::MakeTransport(jsort::Backend::kRbc, world);
      create_us[ri] = Us(Clock::now() - c0);
    }
    {
      ScopedSpan s(tracer, "mpisim.barrier", "mpisim", r, batch, parent);
      mpisim::Barrier(world);
    }
    const auto tb = Clock::now();
    {
      ScopedSpan s(tracer, "mpisim.barrier", "mpisim", r, batch, parent);
      mpisim::Barrier(world);
    }
    if (r == 0) barrier_us = Us(Clock::now() - tb);
    mpisim::RankContext& ctx = mpisim::Ctx();
    // The service starts on an idle machine at model time 0: its arrivals
    // are model timestamps from 0, and an idle member's clock must not be
    // ahead of its admission. The benchmark's own calls above must not
    // delay the first jobs. Every barrier message to this rank has been
    // received, so no earlier timestamp can reach the reset clock.
    ctx.clock.Reset();
    ctx.stats.max_message_bytes = 0;
    const mpisim::Stats s0 = ctx.stats;
    jsort::sched::ServiceStats mine;
    {
      ScopedSpan s(tracer, "sched.service_run", "sched", r, batch, parent);
      run_span[ri] = s.id();
      mine = service->Run(world);
    }
    deltas[ri] = Delta(ctx.stats, s0);
    if (r == 0) stats = std::move(mine);
  };

  const auto start = Clock::now();
  while (batch - first_batch <= kWarmupOps ||
         Seconds(Clock::now() - start) < seconds) {
    const auto jobs = jsort::sched::MakeJobStream(kRanks, ServiceParams(),
                                                  OpSeed(args.seed, batch));
    jsort::sched::SortService svc(kRanks, jobs, ServiceCfg());
    service = &svc;
    stats = {};
    runner.runtime().ResetClocksAndStats();
    ScopedSpan op_span(tracer, "bench.service_batch", "bench", -1, batch, 0);
    const auto w0 = Clock::now();
    bool ran = false;
    {
      ScopedSpan s(tracer, "mpisim.run", "mpisim", -1, batch, op_span.id());
      parent = s.id();
      ran = runner.Run(rank_main);
    }
    const double wall_ms = Ms(Clock::now() - w0);
    if (setup != nullptr) {
      setup->CatchUp(Seconds(Clock::now() - start) / seconds);
    }
    ph.attempted += kServiceBatchJobs;
    ++batch;
    const bool warmup = batch - first_batch <= kWarmupOps && first_batch == 0;
    if (!ran) {
      // The run threw: none of its jobs is known to have finished.
      ph.failed += kServiceBatchJobs;
      std::fprintf(stderr, "perfbench: service batch %lld failed: %s\n",
                   static_cast<long long>(batch - 1),
                   runner.last_error().c_str());
      continue;
    }
    // Oracle: every job present under its id and verified by the service.
    std::int64_t wrong = 0;
    if (stats.jobs.size() != jobs.size()) {
      wrong = kServiceBatchJobs;
    } else {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto& res = stats.jobs[i];
        if (res.spec.id != jobs[i].id || !res.ok) ++wrong;
      }
    }
    if (wrong > 0) {
      ph.incorrect += wrong;
      std::fprintf(stderr, "perfbench: service batch %lld: %lld wrong jobs\n",
                   static_cast<long long>(batch - 1),
                   static_cast<long long>(wrong));
    }
    if (warmup) continue;
    ++ph.batches;
    ph.jobs_done += static_cast<std::int64_t>(stats.jobs.size());
    ph.wall_per_job_ms.push_back(wall_ms / kServiceBatchJobs);
    ph.wall_s += wall_ms / 1000.0;
    ph.makespan += stats.makespan;
    ph.waves += stats.waves;
    double maxb = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      const mpisim::Stats& d = deltas[static_cast<std::size_t>(r)];
      ph.messages += static_cast<double>(d.messages_sent);
      ph.bytes += static_cast<double>(d.bytes_sent);
      maxb = std::max(maxb, static_cast<double>(d.max_message_bytes));
      ph.create_us.push_back(create_us[static_cast<std::size_t>(r)]);
    }
    ph.max_msg.push_back(maxb);
    ph.barrier_us.push_back(barrier_us);
    for (const auto& res : stats.jobs) {
      ph.latency.push_back(res.latency);
      ph.queue_wait.push_back(res.queue_wait);
      ph.split_vtime += res.split_vtime;
      ph.busy_vtime += res.completion_vtime - res.start_vtime;
      ph.width_busy +=
          res.width * (res.completion_vtime - res.start_vtime);
      switch (res.spec.kind) {
        case JobKind::kSort: ph.sort_vtime.push_back(res.sort_vtime); break;
        case JobKind::kSelect: ph.select_vtime.push_back(res.sort_vtime); break;
        case JobKind::kTopK: ph.topk_vtime.push_back(res.sort_vtime); break;
        case JobKind::kQuantile:
          ph.quantile_vtime.push_back(res.sort_vtime);
          break;
      }
      if (res.spec.kind != JobKind::kSort) {
        ph.query_messages.push_back(static_cast<double>(res.messages));
      }
      if (tracer != nullptr && res.first >= 0) {
        // Model-time spans of the job, derived from its JobResult.
        const char* kernel_layer =
            res.spec.kind == JobKind::kSort ? "sort" : "query";
        Span job;
        job.name = "sched.job";
        job.layer = "sched";
        job.rank = res.first;
        job.op = batch - 1;
        job.id = tracer->NextId(res.first);
        job.parent = run_span[static_cast<std::size_t>(res.first)];
        job.vtime_begin = res.spec.arrival_vtime;
        job.vtime_end = res.completion_vtime;
        tracer->Record(job);
        const double split_end = res.start_vtime + res.split_vtime;
        const struct {
          const char* name;
          const char* layer;
          double b, e;
        } parts[] = {
            {"sched.queue", "sched", res.spec.arrival_vtime, res.start_vtime},
            {"rbc.split", "rbc", res.start_vtime, split_end},
            {res.spec.kind == JobKind::kSort ? "sort.kernel" : "query.kernel",
             kernel_layer, split_end, split_end + res.sort_vtime},
        };
        for (const auto& part : parts) {
          Span s = job;
          s.name = part.name;
          s.layer = part.layer;
          s.id = tracer->NextId(res.first);
          s.parent = job.id;
          s.vtime_begin = part.b;
          s.vtime_end = part.e;
          tracer->Record(s);
        }
      }
    }
  }
  ph.next = batch;
  return ph;
}

// Jobs completed per wall second of the batches' Runtime::Run.
double WallRate(const ServicePhase& ph) {
  return ph.wall_s > 0.0 ? static_cast<double>(ph.jobs_done) / ph.wall_s
                         : 0.0;
}

// ---------------------------------------------------------------------------
// Metric tables. Every workload reports every metric of its mode; a layer a
// workload does not exercise reads 0.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"op_vtime_p50", "model_us"}, {"op_vtime_p90", "model_us"},
    {"jobs_per_vsec", "1/model_s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// The simulator's wall speed drifts by up to a third between runs minutes
// apart on a shared 4-core host, more than any regression bound allows, so
// the wall metrics of whole ops are reported with the per-layer metrics,
// from the untraced half of a traced run.
constexpr const char* kWallMetrics[] = {"op_wall_ms_p50", "op_wall_ms_p90",
                                        "ops_per_wall_s"};

constexpr MetricDef kPerLayer[] = {
    {"op_wall_ms_p50", "ms"},
    {"op_wall_ms_p90", "ms"},
    {"ops_per_wall_s", "1/s"},
    {"mpisim.messages_per_op", "count"},
    {"mpisim.bytes_per_op", "B"},
    {"mpisim.max_message_bytes", "B"},
    {"mpisim.msgs_per_wall_s", "1/s"},
    {"mpisim.barrier_wall_us", "us"},
    {"mpisim.run_launch_ms", "ms"},
    {"mpisim.self_wall_ms", "ms"},
    {"rbc.create_wall_us", "us"},
    {"rbc.check_vtime", "model_us"},
    {"rbc.check_wall_ms", "ms"},
    {"rbc.split_vtime_total", "model_us"},
    {"rbc.self_wall_ms", "ms"},
    {"rbc.self_vtime", "model_us"},
    {"topo.inter_messages_per_op", "count"},
    {"topo.inter_bytes_per_op", "B"},
    {"topo.intra_messages_per_op", "count"},
    {"sort.levels", "count"},
    {"sort.janus_episodes", "count"},
    {"sort.payload_messages", "count"},
    {"sort.segments", "count"},
    {"sort.elements_sent", "count"},
    {"sort.exchange_inter_messages", "count"},
    {"sort.exchange_inter_bytes", "B"},
    {"sort.imbalance", "ratio"},
    {"sort.service_sort_vtime_p50", "model_us"},
    {"sort.self_wall_ms", "ms"},
    {"sort.self_vtime", "model_us"},
    {"query.select_vtime_p50", "model_us"},
    {"query.topk_vtime_p50", "model_us"},
    {"query.quantile_vtime_p50", "model_us"},
    {"query.messages_per_job", "count"},
    {"query.self_vtime", "model_us"},
    {"sched.queue_wait_mean", "model_us"},
    {"sched.queue_wait_p90", "model_us"},
    {"sched.utilization", "ratio"},
    {"sched.waves", "count"},
    {"sched.split_share", "ratio"},
    {"sched.failed_jobs", "count"},
    {"sched.self_wall_ms", "ms"},
    {"sched.self_vtime", "model_us"},
    {"tracing_overhead_pct", "%"},
};

template <std::size_t N>
std::vector<Metric> Tabulate(const MetricDef (&defs)[N],
                             const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    out.push_back(Metric{d.name, v, d.unit});
  }
  return out;
}

// Self times per op: wall ms per op, model us per op summed over ranks.
void AddSelfTimes(const Tracer& tracer, double ops,
                  std::map<std::string, double>* v) {
  if (ops <= 0.0) return;
  for (const auto& [layer, t] : SelfTimeByLayer(tracer.All())) {
    (*v)[layer + ".self_wall_ms"] = t.self_wall_us / 1000.0 / ops;
    (*v)[layer + ".self_vtime"] = t.self_vtime / ops;
  }
  // Only the layers listed in kPerLayer survive Tabulate.
}

std::map<std::string, double> EndToEnd(const SortPhase& ph, double setup_s) {
  std::map<std::string, double> v;
  v["op_vtime_p50"] = Median(ph.vtime);
  v["op_vtime_p90"] = TailPercentile(ph.vtime, 0.9);
  v["op_wall_ms_p50"] = Median(ph.wall_ms);
  v["op_wall_ms_p90"] = TailPercentile(ph.wall_ms, 0.9);
  v["ops_per_wall_s"] = WallRate(ph);
  // Back-to-back sorts per model second.
  const double vsum = Sum(ph.vtime);
  v["jobs_per_vsec"] =
      vsum > 0.0 ? static_cast<double>(ph.vtime.size()) / (vsum * 1e-6) : 0.0;
  v["setup_s"] = setup_s;
  v["peak_rss_mb"] = PeakRssMb();
  return v;
}

std::map<std::string, double> Layers(const SortPhase& ph,
                                     const Tracer& tracer) {
  std::map<std::string, double> v;
  const double ops = static_cast<double>(ph.vtime.size());
  v["mpisim.messages_per_op"] = Mean(ph.messages);
  v["mpisim.bytes_per_op"] = Mean(ph.bytes);
  v["mpisim.max_message_bytes"] = Median(ph.max_msg);
  const double wall_s = Sum(ph.wall_ms) / 1000.0;
  v["mpisim.msgs_per_wall_s"] = wall_s > 0.0 ? Sum(ph.messages) / wall_s : 0.0;
  v["mpisim.barrier_wall_us"] = Median(ph.barrier_us);
  v["rbc.create_wall_us"] = Median(ph.create_us);
  v["rbc.check_vtime"] = Median(ph.check_vtime);
  v["rbc.check_wall_ms"] = Median(ph.check_ms);
  v["topo.inter_messages_per_op"] = Mean(ph.inter_msgs);
  v["topo.inter_bytes_per_op"] = Mean(ph.inter_bytes);
  v["topo.intra_messages_per_op"] = Mean(ph.intra_msgs);
  v["sort.levels"] = Mean(ph.levels);
  v["sort.janus_episodes"] = Mean(ph.janus);
  v["sort.payload_messages"] = Mean(ph.payload);
  v["sort.segments"] = Mean(ph.segments);
  v["sort.elements_sent"] = Mean(ph.elements);
  v["sort.exchange_inter_messages"] = Mean(ph.xinter_msgs);
  v["sort.exchange_inter_bytes"] = Mean(ph.xinter_bytes);
  v["sort.imbalance"] = Median(ph.imbalance);
  AddSelfTimes(tracer, ops, &v);
  return v;
}

std::map<std::string, double> EndToEnd(const ServicePhase& ph,
                                       double setup_s) {
  std::map<std::string, double> v;
  v["op_vtime_p50"] = Median(ph.latency);
  v["op_vtime_p90"] = TailPercentile(ph.latency, 0.9);
  v["op_wall_ms_p50"] = Median(ph.wall_per_job_ms);
  v["op_wall_ms_p90"] = TailPercentile(ph.wall_per_job_ms, 0.9);
  v["ops_per_wall_s"] = WallRate(ph);
  v["jobs_per_vsec"] = ph.makespan > 0.0
                           ? static_cast<double>(ph.jobs_done) /
                                 (ph.makespan * 1e-6)
                           : 0.0;
  v["setup_s"] = setup_s;
  v["peak_rss_mb"] = PeakRssMb();
  return v;
}

std::map<std::string, double> Layers(const ServicePhase& ph,
                                     const Tracer& tracer) {
  std::map<std::string, double> v;
  const double jobs = static_cast<double>(ph.jobs_done);
  if (jobs > 0.0) {
    v["mpisim.messages_per_op"] = ph.messages / jobs;
    v["mpisim.bytes_per_op"] = ph.bytes / jobs;
  }
  v["mpisim.max_message_bytes"] = Median(ph.max_msg);
  v["mpisim.msgs_per_wall_s"] = ph.wall_s > 0.0 ? ph.messages / ph.wall_s : 0.0;
  v["mpisim.barrier_wall_us"] = Median(ph.barrier_us);
  v["rbc.create_wall_us"] = Median(ph.create_us);
  v["rbc.split_vtime_total"] = ph.split_vtime;
  v["sort.service_sort_vtime_p50"] = Median(ph.sort_vtime);
  v["query.select_vtime_p50"] = Median(ph.select_vtime);
  v["query.topk_vtime_p50"] = Median(ph.topk_vtime);
  v["query.quantile_vtime_p50"] = Median(ph.quantile_vtime);
  v["query.messages_per_job"] = Mean(ph.query_messages);
  v["sched.queue_wait_mean"] = Mean(ph.queue_wait);
  v["sched.queue_wait_p90"] = TailPercentile(ph.queue_wait, 0.9);
  v["sched.utilization"] =
      ph.makespan > 0.0 ? ph.width_busy / (kRanks * ph.makespan) : 0.0;
  v["sched.waves"] =
      ph.batches > 0 ? ph.waves / static_cast<double>(ph.batches) : 0.0;
  v["sched.split_share"] =
      ph.busy_vtime > 0.0 ? ph.split_vtime / ph.busy_vtime : 0.0;
  AddSelfTimes(tracer, jobs, &v);
  return v;
}

// Sample counts behind op_vtime and op_wall.
std::pair<std::size_t, std::size_t> Samples(const SortPhase& ph) {
  return {ph.vtime.size(), ph.wall_ms.size()};
}
std::pair<std::size_t, std::size_t> Samples(const ServicePhase& ph) {
  return {ph.latency.size(), ph.wall_per_job_ms.size()};
}

void PrintSummary(const Args& args, const Report& rep,
                  std::pair<std::size_t, std::size_t> samples) {
  const auto [vtime_n, wall_n] = samples;
  std::fprintf(stderr,
               "perfbench: %s run, seed=%llu: attempted=%lld failed=%lld "
               "correct=%s; op_vtime samples=%zu (tail quantile %.3f), "
               "op_wall samples=%zu (tail quantile %.3f)\n",
               args.trace ? "traced" : "untraced",
               static_cast<unsigned long long>(args.seed),
               static_cast<long long>(rep.attempted),
               static_cast<long long>(rep.failed), rep.correct ? "yes" : "no",
               vtime_n, TailQuantileUsed(vtime_n, 0.9), wall_n,
               TailQuantileUsed(wall_n, 0.9));
  for (const Metric& m : rep.metrics) {
    std::fprintf(stderr, "  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

void Count(const PhaseCounts& ph, Report* rep) {
  rep->attempted += ph.attempted;
  rep->failed += ph.failed;
  rep->correct = rep->correct && ph.incorrect == 0;
}

// Untraced: one phase over the whole budget, end-to-end metrics. Traced:
// an untraced half, then a traced half for the per-layer metrics; the
// ratio of their wall rates is the tracing overhead.
template <typename Phase>
Report RunPhases(const Args& args,
                 Phase (*run_phase)(OpRunner&, const Args&, double,
                                    std::int64_t, Tracer*, SetupSampler*)) {
  Report rep;
  if (!args.trace) {
    SetupSampler setup(args);
    OpRunner runner(MachineOptions(args.workload, args.seed));
    const Phase ph = run_phase(runner, args, args.seconds, 0, nullptr, &setup);
    Count(ph, &rep);
    const std::map<std::string, double> values =
        EndToEnd(ph, setup.Result());
    rep.metrics = Tabulate(kEndToEnd, values);
    PrintSummary(args, rep, Samples(ph));
    for (const char* name : kWallMetrics) {
      std::fprintf(stderr, "  %-32s %16.6g (wall; reported by --trace 1)\n",
                   name, values.at(name));
    }
    return rep;
  }
  OpRunner runner(MachineOptions(args.workload, args.seed));
  const Phase base =
      run_phase(runner, args, args.seconds / 2, 0, nullptr, nullptr);
  Tracer tracer(kRanks);
  const Phase traced =
      run_phase(runner, args, args.seconds / 2, base.next, &tracer, nullptr);
  Count(base, &rep);
  Count(traced, &rep);
  std::map<std::string, double> values = Layers(traced, tracer);
  const std::map<std::string, double> untraced = EndToEnd(base, 0.0);
  for (const char* name : kWallMetrics) values[name] = untraced.at(name);
  const double traced_rate = WallRate(traced);
  values["tracing_overhead_pct"] =
      traced_rate > 0.0 ? (WallRate(base) / traced_rate - 1.0) * 100.0 : 0.0;
  values["mpisim.run_launch_ms"] = MeasureLaunch(runner);
  if (!IsSort(args.workload)) {
    values["sched.failed_jobs"] = static_cast<double>(rep.failed);
  }
  rep.metrics = Tabulate(kPerLayer, values);
  PrintSummary(args, rep, {Samples(traced).first, Samples(base).second});
  if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
  }
  return rep;
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "jquick-bulk") {
    *out = Workload::kJQuickBulk;
  } else if (name == "multilevel-hier") {
    *out = Workload::kMultilevelHier;
  } else if (name == "service-mix") {
    *out = Workload::kServiceMix;
  } else {
    return false;
  }
  return true;
}

OpRunner::OpRunner(mpisim::Runtime::Options options)
    : options_(std::move(options)),
      runtime_(std::make_unique<mpisim::Runtime>(options_)) {}

bool OpRunner::Run(const std::function<void(mpisim::Comm&)>& rank_main) {
  try {
    runtime_->Run(rank_main);
    return true;
  } catch (const std::exception& e) {
    last_error_ = e.what();
  }
  runtime_ = std::make_unique<mpisim::Runtime>(options_);
  return false;
}

std::uint64_t OpSeed(std::uint64_t seed, std::int64_t op) {
  return Mix(Mix(seed) ^ static_cast<std::uint64_t>(op));
}

std::uint64_t WorkloadInputFingerprint(Workload workload, std::uint64_t seed) {
  std::uint64_t h = 0xF1A9u;
  if (IsSort(workload)) {
    for (int r = 0; r < kRanks; ++r) {
      for (double x : jsort::GenerateInput(SortInput(workload), r, kRanks,
                                           kQuota, OpSeed(seed, 0))) {
        h = HashIn(h, Bits(x));
      }
    }
    return h;
  }
  for (const auto& j : jsort::sched::MakeJobStream(kRanks, ServiceParams(),
                                                   OpSeed(seed, 0))) {
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(j.id), static_cast<std::uint64_t>(j.kind),
          static_cast<std::uint64_t>(j.input),
          static_cast<std::uint64_t>(j.n_total),
          static_cast<std::uint64_t>(j.algorithm),
          static_cast<std::uint64_t>(j.k), Bits(j.q),
          static_cast<std::uint64_t>(j.width), Bits(j.arrival_vtime),
          j.seed}) {
      h = HashIn(h, v);
    }
  }
  return h;
}

Report RunBenchmark(const Args& args) {
  std::fprintf(stderr, "perfbench: seed=%llu input_fingerprint=%016llx\n",
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(
                   WorkloadInputFingerprint(args.workload, args.seed)));
  return IsSort(args.workload) ? RunPhases(args, &RunSortPhase)
                               : RunPhases(args, &RunServicePhase);
}

std::string ReportJson(const Report& report) {
  std::string s = "{\"correct\": ";
  s += report.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(report.attempted);
  s += ", \"failed\": " + std::to_string(report.failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
