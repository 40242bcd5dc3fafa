// Named metrics and the benchmark's output: an aligned table for people and
// one JSON result line for tools.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// A metric name starts with a letter or digit and has at most 64 letters,
// digits, '_', '.' and '-'.
bool IsValidMetricName(std::string_view name);
// A unit has 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool IsValidUnit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // base of a ratio, sample count, ...; table only
};

class Report {
 public:
  // Names must be valid and unused, units valid (checked).
  void Add(std::string name, double value, std::string unit,
           std::string note = "");

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(std::string_view name) const;

  void PrintTable(std::ostream& out) const;

 private:
  std::vector<Metric> metrics_;
};

// Shortest round-trip decimal form; non-finite values print as 0 (callers
// treat a non-finite metric as a failed check).
std::string FormatNumber(double value);

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
// {"value": v, "unit": u}, ...}} on one line.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       std::span<const Metric> metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
