// Tests for the observability subsystem (src/obs): registry get-or-create
// semantics, counter/gauge/histogram behavior, snapshot shape, and the JSON
// rendering contract documented in docs/OBSERVABILITY.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace syrup::obs {
namespace {

TEST(MetricsRegistryTest, GetOrCreateReturnsSameCell) {
  MetricsRegistry registry;
  auto a = registry.GetCounter("app", "hook", "events");
  auto b = registry.GetCounter("app", "hook", "events");
  EXPECT_EQ(a.get(), b.get());

  a->Inc(3);
  EXPECT_EQ(b->value, 3u);
}

TEST(MetricsRegistryTest, DistinctKeysGetDistinctCells) {
  MetricsRegistry registry;
  auto a = registry.GetCounter("app", "hook", "events");
  auto b = registry.GetCounter("app", "hook", "drops");
  auto c = registry.GetCounter("app", "other_hook", "events");
  auto d = registry.GetCounter("other_app", "hook", "events");
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(registry.NumMetrics(), 4u);
}

TEST(MetricsRegistryTest, KindsCoexistUnderOneKey) {
  // A key can hold a counter, a gauge, and a histogram simultaneously;
  // repeated Get of each kind is stable.
  MetricsRegistry registry;
  auto counter = registry.GetCounter("app", "hook", "m");
  auto gauge = registry.GetGauge("app", "hook", "m");
  auto histogram = registry.GetHistogram("app", "hook", "m");
  EXPECT_EQ(counter.get(), registry.GetCounter("app", "hook", "m").get());
  EXPECT_EQ(gauge.get(), registry.GetGauge("app", "hook", "m").get());
  EXPECT_EQ(histogram.get(), registry.GetHistogram("app", "hook", "m").get());
}

TEST(MetricsRegistryTest, CellOutlivesRegistry) {
  // shared_ptr ownership: a component holding a cell keeps bumping safely
  // even if the registry is torn down first.
  std::shared_ptr<Counter> cell;
  {
    MetricsRegistry registry;
    cell = registry.GetCounter("app", "hook", "events");
    cell->Inc();
  }
  cell->Inc();
  EXPECT_EQ(cell->value, 2u);
}

TEST(CounterTest, IncAndIncAtomicAgree) {
  Counter counter;
  counter.Inc();
  counter.Inc(4);
  counter.IncAtomic();
  counter.IncAtomic(10);
  EXPECT_EQ(counter.value, 16u);
  EXPECT_EQ(counter.Load(), 16u);
}

TEST(CounterTest, IncAtomicIsThreadSafe) {
  Counter counter;
  constexpr int kThreads = 4;
  constexpr int kIters = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (int i = 0; i < kIters; ++i) {
        counter.IncAtomic();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Load(), static_cast<uint64_t>(kThreads) * kIters);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value, 7);
  gauge.Add(-20);
  EXPECT_EQ(gauge.Load(), -13);
}

// --- Histogram cells ---------------------------------------------------------
// Registry histograms are syrup::Histogram (src/common/histogram.h):
// log-linear buckets, each at most 1/32 of its lower edge wide.

TEST(RegistryHistogramTest, EmptyCellSummarizesToZero) {
  MetricsRegistry registry;
  registry.GetHistogram("app", "hook", "latency_ns");
  const Snapshot snap = registry.TakeSnapshot();
  const HistogramSummary* summary = snap.Histogram("app", "hook", "latency_ns");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->count, 0u);
  EXPECT_EQ(summary->min, 0u);
  EXPECT_EQ(summary->max, 0u);
  EXPECT_EQ(summary->mean, 0.0);
  EXPECT_EQ(summary->p50, 0u);
  EXPECT_EQ(summary->p99, 0u);
}

TEST(RegistryHistogramTest, BucketEdgeWithinOneThirtySecond) {
  // p50 of {v, far} is the upper edge of v's bucket (the far sample keeps it
  // from clamping to max): exact below 32, at most v/32 above v beyond.
  for (uint64_t v = 1; v < (uint64_t{1} << 39); v = v * 3 / 2 + 1) {
    syrup::Histogram histogram;
    histogram.Record(v);
    histogram.Record(uint64_t{1} << 40);
    const uint64_t edge = histogram.Percentile(50);
    EXPECT_GE(edge, v);
    EXPECT_LE(edge - v, v < 32 ? 0 : v / 32) << "v " << v;
  }
}

TEST(RegistryHistogramTest, RecordsStats) {
  syrup::Histogram histogram;
  histogram.Record(100);
  histogram.Record(200);
  histogram.Record(300);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.min(), 100u);
  EXPECT_EQ(histogram.max(), 300u);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 200.0);
}

TEST(RegistryHistogramTest, PercentileReturnsBucketUpperEdge) {
  syrup::Histogram histogram;
  // 90 samples in bucket [100, 101] and 10 in bucket [1472, 1503].
  for (int i = 0; i < 90; ++i) {
    histogram.Record(100);
  }
  for (int i = 0; i < 10; ++i) {
    histogram.Record(1500);
  }
  EXPECT_EQ(histogram.Percentile(50), 101u);
  EXPECT_EQ(histogram.Percentile(90), 101u);
  // p99 lands in the high bucket; its edge (1503) is clamped to max.
  EXPECT_EQ(histogram.Percentile(99), 1500u);
  EXPECT_EQ(histogram.Percentile(100), 1500u);
}

TEST(RegistryHistogramTest, PercentileClampedToObservedMax) {
  syrup::Histogram histogram;
  histogram.Record(1'000'000);
  // One sample: every percentile is that sample, not its bucket edge.
  EXPECT_EQ(histogram.Percentile(50), 1'000'000u);
  EXPECT_EQ(histogram.Percentile(99.9), 1'000'000u);
}

TEST(RegistryHistogramTest, Merge) {
  syrup::Histogram a;
  syrup::Histogram b;
  a.Record(10);
  a.Record(20);
  b.Record(5);
  b.Record(4000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 4000u);
  EXPECT_DOUBLE_EQ(a.Mean(), (10 + 20 + 5 + 4000) / 4.0);
}

TEST(RegistryHistogramTest, MergeEmptyIsNoOp) {
  syrup::Histogram a;
  a.Record(10);
  syrup::Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 10u);
}

// Deterministic samples in [2800, 3200] ns, a delivery-latency shape. A
// power-of-two bucketing would report p50 = 4095 for them.
std::vector<uint64_t> NarrowSamples(size_t n, uint64_t seed) {
  std::vector<uint64_t> samples;
  uint64_t lcg = seed;
  for (size_t i = 0; i < n; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    samples.push_back(2800 + (lcg >> 33) % 401);
  }
  return samples;
}

// The pct-th order statistic: the ceil(pct/100 * n)-th smallest sample.
uint64_t OrderStatistic(std::vector<uint64_t> samples, double pct) {
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  return samples[static_cast<size_t>(std::max(rank, 1.0)) - 1];
}

void ExpectWithinOneThirtySecond(uint64_t reported, uint64_t truth) {
  const double error =
      std::abs(static_cast<double>(reported) - static_cast<double>(truth));
  EXPECT_LE(error, static_cast<double>(truth) / 32.0)
      << "reported " << reported << " true " << truth;
}

TEST(RegistryHistogramTest, SnapshotPercentilesWithinOneThirtySecond) {
  MetricsRegistry registry;
  auto histogram = registry.GetHistogram("host", "stack", "delivery_ns");
  const std::vector<uint64_t> samples = NarrowSamples(10'000, 3);
  for (const uint64_t sample : samples) {
    histogram->Record(sample);
  }
  const Snapshot snap = registry.TakeSnapshot();
  const HistogramSummary* summary =
      snap.Histogram("host", "stack", "delivery_ns");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->count, samples.size());
  ExpectWithinOneThirtySecond(summary->p50, OrderStatistic(samples, 50));
  ExpectWithinOneThirtySecond(summary->p99, OrderStatistic(samples, 99));
  EXPECT_LE(summary->p99, summary->max);
}

TEST(RegistryHistogramTest, ShardCellsFoldIntoOneSummary) {
  // The base cell and two shard cells under one key merge at snapshot time;
  // the folded percentiles keep the 1/32 bound over the union.
  MetricsRegistry registry;
  std::vector<uint64_t> all;
  std::vector<std::shared_ptr<syrup::Histogram>> cells = {
      registry.GetHistogram("app", "hook", "latency_ns"),
      registry.GetHistogramShard("app", "hook", "latency_ns", 0),
      registry.GetHistogramShard("app", "hook", "latency_ns", 2)};
  for (size_t i = 0; i < cells.size(); ++i) {
    for (const uint64_t sample : NarrowSamples(1'000 * (i + 1), 11 + i)) {
      cells[i]->Record(sample);
      all.push_back(sample);
    }
  }
  const Snapshot snap = registry.TakeSnapshot();
  const HistogramSummary* summary = snap.Histogram("app", "hook", "latency_ns");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->count, all.size());
  EXPECT_EQ(summary->min, *std::min_element(all.begin(), all.end()));
  EXPECT_EQ(summary->max, *std::max_element(all.begin(), all.end()));
  ExpectWithinOneThirtySecond(summary->p50, OrderStatistic(all, 50));
  ExpectWithinOneThirtySecond(summary->p99, OrderStatistic(all, 99));
}

TEST(SnapshotTest, ShapeAndReaders) {
  MetricsRegistry registry;
  registry.GetCounter("alpha", "socket_select", "dispatched")->Inc(42);
  registry.GetGauge("alpha", "thread_scheduler", "runnable_depth")->Set(-2);
  auto histogram = registry.GetHistogram("host", "stack", "delivery_ns");
  histogram->Record(100);
  histogram->Record(1500);

  const Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.apps.size(), 2u);
  ASSERT_TRUE(snap.apps.contains("alpha"));
  ASSERT_TRUE(snap.apps.contains("host"));

  EXPECT_EQ(snap.CounterValue("alpha", "socket_select", "dispatched"), 42u);
  EXPECT_EQ(snap.GaugeValue("alpha", "thread_scheduler", "runnable_depth"),
            -2);

  const HistogramSummary* summary =
      snap.Histogram("host", "stack", "delivery_ns");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->count, 2u);
  EXPECT_EQ(summary->min, 100u);
  EXPECT_EQ(summary->max, 1500u);
  EXPECT_DOUBLE_EQ(summary->mean, 800.0);

  // Absent keys and kind mismatches read as zero / null.
  EXPECT_EQ(snap.CounterValue("nope", "x", "y"), 0u);
  EXPECT_EQ(snap.GaugeValue("alpha", "socket_select", "dispatched"), 0);
  EXPECT_EQ(snap.Histogram("alpha", "socket_select", "dispatched"), nullptr);
  EXPECT_EQ(snap.Find("alpha", "socket_select", "missing"), nullptr);
}

TEST(SnapshotTest, SnapshotIsPointInTime) {
  MetricsRegistry registry;
  auto counter = registry.GetCounter("app", "hook", "events");
  counter->Inc(5);
  const Snapshot before = registry.TakeSnapshot();
  counter->Inc(5);
  const Snapshot after = registry.TakeSnapshot();
  EXPECT_EQ(before.CounterValue("app", "hook", "events"), 5u);
  EXPECT_EQ(after.CounterValue("app", "hook", "events"), 10u);
}

// Minimal structural JSON validator: brackets balance, strings close.
// Enough to catch escaping and comma bugs without a JSON dependency.
bool IsStructurallyValidJson(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST(SnapshotJsonTest, EmptyRegistry) {
  MetricsRegistry registry;
  const std::string json = registry.TakeSnapshot().ToJson(/*pretty=*/false);
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"apps\""), std::string::npos) << json;
}

TEST(SnapshotJsonTest, RendersAllKindsValidly) {
  MetricsRegistry registry;
  registry.GetCounter("app", "hook", "events")->Inc(7);
  registry.GetGauge("app", "hook", "depth")->Set(-3);
  auto histogram = registry.GetHistogram("app", "hook", "latency_ns");
  histogram->Record(100);

  for (const bool pretty : {false, true}) {
    const std::string json = registry.TakeSnapshot().ToJson(pretty);
    EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
    EXPECT_NE(json.find("\"type\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"counter\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"gauge\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"histogram\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"events\""), std::string::npos) << json;
    EXPECT_NE(json.find("-3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
  }
}

TEST(SnapshotJsonTest, EscapesSpecialCharacters) {
  MetricsRegistry registry;
  registry.GetCounter("we\"ird\\app", "ho\nok", "m\tetric")->Inc();
  const std::string json = registry.TakeSnapshot().ToJson(/*pretty=*/false);
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  EXPECT_NE(json.find("we\\\"ird\\\\app"), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\\t"), std::string::npos) << json;
}

TEST(SnapshotJsonTest, DeterministicOrdering) {
  // Registration order must not leak into the rendering: std::map keys.
  MetricsRegistry a;
  a.GetCounter("zeta", "h", "m")->Inc();
  a.GetCounter("alpha", "h", "m")->Inc();
  MetricsRegistry b;
  b.GetCounter("alpha", "h", "m")->Inc();
  b.GetCounter("zeta", "h", "m")->Inc();
  EXPECT_EQ(a.TakeSnapshot().ToJson(), b.TakeSnapshot().ToJson());
}

}  // namespace
}  // namespace syrup::obs
