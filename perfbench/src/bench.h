// One benchmark run of one workload: the untraced end-to-end pass or the
// traced per-layer pass, with the correctness checks of both.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/report.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

struct BenchOptions {
  Workload workload;
  // Wall time the timed repetitions run for (at least three run).
  double seconds = 10;
  // false: end-to-end metrics, tracing off. true: per-layer metrics from the
  // traced pass, each traced repetition paired with an untraced one.
  bool trace = false;
  // Where the traced pass writes its first repetition's spans as a Chrome
  // trace (empty: not written).
  std::string trace_out;
};

struct BenchResult {
  Report metrics;                  // the result line's metrics
  std::vector<std::string> notes;  // table-only lines
  std::vector<std::string> failures;  // failed correctness checks
  uint64_t attempted = 0;  // requests one simulated run sends
  uint64_t failed = 0;     // of those, dropped
  int reps = 0;

  bool correct() const { return failures.empty(); }
};

BenchResult RunBenchmark(const BenchOptions& options);

// The determinism check: every run's canonical result must equal the
// first's. Keeps only the first result, so memory stays flat however many
// runs are added.
class DeterminismCheck {
 public:
  void Add(std::string canonical_result);
  // Index of the first run that differed from run 0, or -1.
  int first_mismatch() const { return first_mismatch_; }
  const std::string& first() const { return first_; }

 private:
  std::string first_;
  int runs_ = 0;
  int first_mismatch_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
