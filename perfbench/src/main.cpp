// perfbench: runs one workload of the end-to-end benchmark and prints its
// result as one JSON line on stdout (details on stderr).
//
//   perfbench --workload <jquick-bulk|multilevel-hier|service-mix>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "driver.hpp"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<jquick-bulk|multilevel-hier|service-mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!perfbench::ParseWorkload(value, &args.workload)) {
        return Usage("unknown workload");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload) return Usage("--workload is required");
  const perfbench::Report report = perfbench::RunBenchmark(args);
  std::printf("%s\n", perfbench::ReportJson(report).c_str());
  return 0;
}
