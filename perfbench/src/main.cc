// perfbench: end-to-end benchmark of the paper's configurations.
//
//   perfbench --workload <name> --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics (host cost per simulated request,
// set-up time, peak RSS, simulated latency and goodput; tracing off);
// --trace 1 prints the per-layer metrics of the traced pass. The last line
// of standard output is one JSON result object. One process runs one
// workload, so its peak RSS is that workload's. The exit code is 0 only
// when every correctness check passed; usage errors exit 2 without a
// result.
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "perfbench/src/bench.h"

namespace {

[[noreturn]] void Usage(std::string_view error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <name> --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:";
  for (std::string_view name : perfbench::WorkloadNames()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  std::exit(2);
}

uint64_t ParseUint(std::string_view flag, const std::string& value) {
  try {
    size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used == value.size()) {
      return v;
    }
  } catch (const std::exception&) {
  }
  Usage(std::string(flag) + " needs a whole number, got '" + value + "'");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  int trace = -1;
  bool have_seed = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = ParseUint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = ParseUint(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage("unknown flag " + std::string(flag));
    }
  }
  if (workload.empty() || !have_seed || seconds == 0 || trace < 0) {
    Usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }

  const auto w = perfbench::MakeWorkload(workload, seed);
  if (!w.has_value()) {
    Usage("unknown workload '" + workload + "'");
  }
  perfbench::BenchOptions options;
  options.workload = *w;
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.trace_out = trace_out;
  const perfbench::BenchResult result = perfbench::RunBenchmark(options);

  std::cout << "workload " << workload << "  seed " << seed << "  trace "
            << trace << "  runs " << result.reps << "\n  why: " << w->why
            << "\n";
  result.metrics.PrintTable(std::cout);
  for (const std::string& note : result.notes) {
    std::cout << "  " << note << '\n';
  }
  for (const std::string& failure : result.failures) {
    std::cout << "  CHECK FAILED: " << failure << '\n';
  }
  std::cout << perfbench::ResultJson(result.correct(), result.attempted,
                                     result.failed, result.metrics.metrics())
            << std::endl;
  return result.correct() ? 0 : 1;
}
