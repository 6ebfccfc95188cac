// mcm_perfbench: runs one workload of the repository benchmark and prints
// its metrics; perfbench/run.py builds it and passes the arguments through.
//
//   mcm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--small] [--spans PATH]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "gridsim/context.hpp"
#include "harness.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mcm_perfbench: %s\nusage: mcm_perfbench --workload "
               "batch-rmat|batch-road|service-read|service-mixed|dynamic-churn "
               "--seed N "
               "--seconds S --trace 0|1 [--small] [--spans PATH]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!(args.seconds > 0)) usage("--seconds must be positive");

  // Tracing is off unless a traced phase turns it on, whatever
  // MCM_TRACE_MODE says.
  mcm::SimContext::set_trace_mode(mcm::TraceMode::Off);

  perfbench::Report report;
  try {
    if (args.workload == "batch-rmat") {
      report = perfbench::run_batch(args, false);
    } else if (args.workload == "batch-road") {
      report = perfbench::run_batch(args, true);
    } else if (args.workload == "service-read") {
      report = perfbench::run_service(args, false);
    } else if (args.workload == "service-mixed") {
      report = perfbench::run_service(args, true);
    } else if (args.workload == "dynamic-churn") {
      report = perfbench::run_dynamic(args);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcm_perfbench: %s\n", e.what());
    return 1;
  }
  if (args.trace) report.fill_missing_layers();
  report.print();
  return 0;
}
