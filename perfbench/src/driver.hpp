// The end-to-end benchmark: three workloads over the public entry points
// of the program (mpisim::Runtime, rbc::Create_RBC_Comm,
// jsort::MakeTransport, jsort::GenerateInput, JQuickSort,
// MultilevelSampleSort, the jsort checkers and sched::SortService). See
// perfbench/README.md for the workloads, metrics and their units.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mpisim/mpisim.hpp"

namespace perfbench {

enum class Workload { kJQuickBulk, kMultilevelHier, kServiceMix };

bool ParseWorkload(std::string_view name, Workload* out);

struct Args {
  Workload workload = Workload::kJQuickBulk;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace file of the traced run ("" = none)
};

/// One op's failure domain. Run() executes `rank_main` on every rank of
/// the current runtime; when any rank throws (mpisim::Error,
/// DeadlockError, or any other std::exception) the op fails: the error is
/// kept, the runtime is replaced by a fresh one so the next op starts
/// clean, and Run() returns false. Ops are never retried.
class OpRunner {
 public:
  explicit OpRunner(mpisim::Runtime::Options options);

  bool Run(const std::function<void(mpisim::Comm&)>& rank_main);

  mpisim::Runtime& runtime() { return *runtime_; }
  const std::string& last_error() const { return last_error_; }

 private:
  mpisim::Runtime::Options options_;
  std::unique_ptr<mpisim::Runtime> runtime_;
  std::string last_error_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;        // no completed op returned a wrong result
  std::int64_t attempted = 0; // sorts, or service jobs
  std::int64_t failed = 0;    // ops that raised instead of returning
  std::vector<Metric> metrics;
};

/// Seed of op (or service batch) `op` of a run seeded with `seed`.
std::uint64_t OpSeed(std::uint64_t seed, std::int64_t op);

/// Hash of the global input of a workload's first op (sorts: every rank's
/// generated slice in rank order; service-mix: the first batch's job
/// specs, which determine every job's input). Equal seeds give equal
/// fingerprints, different seeds different ones.
std::uint64_t WorkloadInputFingerprint(Workload workload, std::uint64_t seed);

/// Runs the workload for args.seconds (traced runs: half untraced, half
/// traced) and returns the end-to-end metrics (trace off) or the per-layer
/// metrics (trace on). Progress and a human-readable summary go to stderr.
Report RunBenchmark(const Args& args);

/// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
std::string ReportJson(const Report& report);

}  // namespace perfbench
