#include "perfbench/src/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "src/common/logging.h"

namespace perfbench {
namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool IsValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void Report::Add(std::string name, double value, std::string unit,
                 std::string note) {
  SYRUP_CHECK(IsValidMetricName(name)) << "bad metric name " << name;
  SYRUP_CHECK(IsValidUnit(unit)) << "bad unit " << unit << " of " << name;
  SYRUP_CHECK(Find(name) == nullptr) << "metric " << name << " added twice";
  metrics_.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

const Metric* Report::Find(std::string_view name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

void Report::PrintTable(std::ostream& out) const {
  size_t width = 0;
  for (const Metric& metric : metrics_) {
    width = std::max(width, metric.name.size());
  }
  for (const Metric& metric : metrics_) {
    out << "  " << metric.name << std::string(width - metric.name.size(), ' ')
        << "  " << FormatNumber(metric.value) << ' ' << metric.unit;
    if (!metric.note.empty()) {
      out << "  (" << metric.note << ')';
    }
    out << '\n';
  }
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       std::span<const Metric> metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // Names and units are validated on entry, so they need no escaping.
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << FormatNumber(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
