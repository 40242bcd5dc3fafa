// Tests of the benchmark's own code: metric-name validity, the determinism
// check, and that the benchmark's assembled host reproduces the public
// experiment entry points (traced and untraced) at a short run length.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/assembly.h"
#include "perfbench/src/bench.h"
#include "perfbench/src/report.h"
#include "perfbench/src/tracer.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using syrup::kMillisecond;

// A short span keeps every test run well under a second, yet long enough
// that a changed seed or model moves the canonical result.
Workload Short(std::string_view name, uint64_t seed = 3) {
  const auto w = MakeWorkload(name, seed);
  EXPECT_TRUE(w.has_value()) << name;
  return w->is_mica ? WithSpan(*w, 10 * kMillisecond, 20 * kMillisecond)
                    : WithSpan(*w, 50 * kMillisecond, 250 * kMillisecond);
}

TEST(MetricNameTest, AcceptsLettersDigitsUnderscoreDotDash) {
  EXPECT_TRUE(IsValidMetricName("host_ns_per_req"));
  EXPECT_TRUE(IsValidMetricName("core.dispatch_ns_per_pkt.socket_select"));
  EXPECT_TRUE(IsValidMetricName("9lives-x.y_z"));
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'a')));
}

TEST(MetricNameTest, RejectsEverythingElse) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("_leading"));
  EXPECT_FALSE(IsValidMetricName(".leading"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("quote\""));
  EXPECT_FALSE(IsValidMetricName("slash/name"));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));
}

TEST(MetricNameTest, Units) {
  for (const char* unit : {"ns", "s", "us", "MB", "1/s", "count", "ratio",
                           "%"}) {
    EXPECT_TRUE(IsValidUnit(unit)) << unit;
  }
  EXPECT_FALSE(IsValidUnit(""));
  EXPECT_FALSE(IsValidUnit("micro seconds"));
  EXPECT_FALSE(IsValidUnit(std::string(17, 's')));
}

TEST(ReportTest, ResultLineHasExactlyTheContractKeys) {
  Report report;
  report.Add("latency_ms", 1.25, "ms");
  report.Add("setup_s", 0.5, "s", "note stays out of the JSON");
  EXPECT_EQ(ResultJson(true, 10, 1, report.metrics()),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(ReportTest, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(FormatNumber(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(FormatNumber(1e-3), "0.001");
}

DeterminismCheck CheckOf(const std::vector<std::string>& runs) {
  DeterminismCheck check;
  for (const std::string& run : runs) {
    check.Add(run);
  }
  return check;
}

TEST(DeterminismCheckTest, FlagsTheFirstDifferingRun) {
  EXPECT_EQ(CheckOf({"a", "a", "a"}).first_mismatch(), -1);
  EXPECT_EQ(CheckOf({"a", "a", "b", "c"}).first_mismatch(), 2);
  EXPECT_EQ(CheckOf({"a", "a", "b", "c"}).first(), "a");
}

TEST(DeterminismCheckTest, NormalizationDropsOnlyWallClockGauges) {
  const std::string json =
      "{\n"
      "\"policy.compile_ns\":{\"type\":\"gauge\",\"value\":17080},\n"
      "\"policy.insns\":{\"type\":\"counter\",\"value\":5},\n"
      "\"policy.jit_ns\":{\"type\":\"gauge\",\"value\":99},\n"
      "\"verifier.verify_ns\":{\"type\":\"gauge\",\"value\":7},\n"
      "}";
  EXPECT_EQ(NormalizeStatsJson(json),
            "{\n\"policy.insns\":{\"type\":\"counter\",\"value\":5},\n}\n");
}

TEST(DeterminismCheckTest, RepeatedPublicRunsAreIdentical) {
  const Workload w = Short("rocksdb_sita");
  const std::string first = RunPublic(w);
  EXPECT_EQ(CheckOf({first, RunPublic(w)}).first_mismatch(), -1);
  // A different seed is a different simulation, and the check sees it.
  EXPECT_EQ(
      CheckOf({first, RunPublic(Short("rocksdb_sita", 4))}).first_mismatch(),
      1);
}

class AssemblyTest : public ::testing::TestWithParam<std::string_view> {};

TEST_P(AssemblyTest, ReproducesThePublicEntryPoint) {
  const Workload w = Short(GetParam());
  const std::string expected = RunPublic(w);
  EXPECT_EQ(RunAssembled(w, nullptr).canonical, expected);
  Tracer tracer;
  const AssembledRun traced = RunAssembled(w, &tracer);
  EXPECT_EQ(traced.canonical, expected);
  EXPECT_GT(tracer.totals(SpanKind::kSimRun).spans, 0u);
  EXPECT_EQ(tracer.totals(SpanKind::kNetRx).items, traced.sent);
  EXPECT_GT(tracer.totals(SpanKind::kSchedCallback).spans, 0u);
}

TEST_P(AssemblyTest, ConservesRequests) {
  const AssembledRun run = RunAssembled(Short(GetParam()), nullptr);
  EXPECT_GT(run.sent, 0u);
  EXPECT_EQ(run.unaccounted, 0);
  EXPECT_EQ(run.sent, run.completed + run.dropped + run.in_flight_end);
}

TEST_P(AssemblyTest, BenchmarkChecksPassAndNamesAreValid) {
  for (bool trace : {false, true}) {
    BenchOptions options;
    options.workload = Short(GetParam());
    options.seconds = 0;
    options.trace = trace;
    const BenchResult result = RunBenchmark(options);
    EXPECT_TRUE(result.correct())
        << (result.failures.empty() ? "" : result.failures.front());
    EXPECT_EQ(result.reps, 3);
    EXPECT_GT(result.attempted, 0u);
    for (const Metric& metric : result.metrics.metrics()) {
      EXPECT_TRUE(IsValidMetricName(metric.name)) << metric.name;
      EXPECT_TRUE(IsValidUnit(metric.unit)) << metric.unit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, AssemblyTest,
                         ::testing::ValuesIn(WorkloadNames().begin(),
                                             WorkloadNames().end()),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(InterpolatedPercentileTest, StaysInsideTheBucketAndMovesWithRank) {
  syrup::Histogram histogram;
  for (uint64_t v = 1; v <= 100'000; ++v) {
    histogram.Record(v);
  }
  for (double pct : {50.0, 99.0, 99.9}) {
    const double exact = pct / 100.0 * 100'000;
    const double interpolated = InterpolatedPercentile(histogram, pct);
    // Never above the bucket edge the histogram reports, and far closer to
    // the exact value than the edge's ~3% resolution.
    EXPECT_LE(interpolated, static_cast<double>(histogram.Percentile(pct)));
    EXPECT_NEAR(interpolated, exact, exact * 0.002) << pct;
  }
  EXPECT_LT(InterpolatedPercentile(histogram, 50.0),
            InterpolatedPercentile(histogram, 50.1));
  EXPECT_EQ(InterpolatedPercentile(syrup::Histogram(), 99), 0);
  syrup::Histogram one;
  one.Record(1234);
  EXPECT_EQ(InterpolatedPercentile(one, 99), 1234);
}

TEST(TracerTest, SelfTimeExcludesChildren) {
  Tracer tracer;
  tracer.Begin(SpanKind::kSimRun);
  tracer.Begin(SpanKind::kNetRx, 3);
  tracer.Begin(SpanKind::kNetRx, 2);  // nested same kind: counted once
  tracer.End(SpanKind::kNetRx);
  tracer.End(SpanKind::kNetRx);
  tracer.End(SpanKind::kSimRun);
  const SpanTotals& run = tracer.totals(SpanKind::kSimRun);
  const SpanTotals& rx = tracer.totals(SpanKind::kNetRx);
  EXPECT_EQ(run.spans, 1u);
  EXPECT_EQ(rx.spans, 2u);
  EXPECT_EQ(rx.items, 5u);
  EXPECT_LE(rx.inclusive_ns, run.inclusive_ns);
  EXPECT_EQ(run.self_ns + rx.inclusive_ns, run.inclusive_ns);
  EXPECT_EQ(tracer.raw_spans(), 3u);
}

TEST(TracerTest, KeepsRawSpansUpToTheLimitAndCountsThemAll) {
  Tracer tracer;
  for (size_t i = 0; i <= Tracer::kMaxRawSpans; ++i) {
    tracer.Begin(SpanKind::kNetRx);
    tracer.End(SpanKind::kNetRx);
  }
  EXPECT_EQ(tracer.raw_spans(), Tracer::kMaxRawSpans);
  EXPECT_EQ(tracer.totals(SpanKind::kNetRx).spans, Tracer::kMaxRawSpans + 1);
}

}  // namespace
}  // namespace perfbench
