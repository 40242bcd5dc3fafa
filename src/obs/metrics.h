// Observability: the metrics registry threaded through the datapath.
//
// Every component of the stack (HostStack, Syrupd dispatch, the policy VM,
// Syrup Maps, the ghOSt agent) accounts its work in cells owned by a
// MetricsRegistry, keyed by {app, hook, metric}. The design goals, in
// order:
//
//   1. Hot-path cost must be a plain `uint64_t` bump through a pointer the
//      component resolved at bind/deploy time — no string hashing, no map
//      lookup, no lock on the packet path. Cells are handed out as
//      shared_ptr so an in-flight packet can never outlive its counter.
//   2. Components must work standalone (tests build a HostStack or a
//      GhostScheduler with no daemon): constructors allocate detached
//      cells, and a later BindMetrics(registry) re-homes the accounting —
//      accumulated values carry over, so late binding loses nothing.
//   3. One coherent read side: TakeSnapshot() produces an immutable
//      app -> hook -> metric tree with a stable JSON rendering
//      (docs/OBSERVABILITY.md documents the schema).
//
// Cells shared across real threads (Syrup Maps are contractually
// thread-safe) bump with std::atomic_ref on the same plain field, so the
// single-threaded simulation never pays for atomicity it doesn't need.
#ifndef SYRUP_SRC_OBS_METRICS_H_
#define SYRUP_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"

namespace syrup::obs {

// Monotonically increasing event count.
struct Counter {
  uint64_t value = 0;

  void Inc(uint64_t delta = 1) { value += delta; }

  // For cells shared across OS threads (map ops under the Table 3
  // contended bench). Relaxed: counters need atomicity, not ordering.
  void IncAtomic(uint64_t delta = 1) {
    std::atomic_ref<uint64_t>(value).fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  // Single-writer increment for shard-local cells: race-free against a
  // concurrent Load() without the lock-prefixed RMW IncAtomic pays. Only
  // valid when exactly one thread ever writes this cell (the owning shard).
  void IncRelaxed(uint64_t delta = 1) {
    std::atomic_ref<uint64_t> ref(value);
    ref.store(ref.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
  }

  uint64_t Load() const {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(value))
        .load(std::memory_order_relaxed);
  }
};

// Point-in-time level (queue depth, configured capacity, a recorded ns
// measurement). Signed so instantaneous deltas can go negative.
struct Gauge {
  int64_t value = 0;

  void Set(int64_t v) { value = v; }
  void Add(int64_t delta) { value += delta; }

  int64_t Load() const {
    return std::atomic_ref<int64_t>(const_cast<int64_t&>(value))
        .load(std::memory_order_relaxed);
  }
};

// Histogram cells are syrup::Histogram (src/common/histogram.h): log-linear
// buckets bound the relative quantile error at ~1/32, Record() is a
// count-leading-zeros, a shift and an increment, and Merge() folds shard
// cells at snapshot time.

// Summary of one histogram inside a snapshot.
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

// One metric inside a snapshot.
struct SnapshotMetric {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramSummary histogram;
};

// Immutable app -> hook -> metric tree. std::map keys make the JSON
// rendering deterministic.
class Snapshot {
 public:
  using MetricMap = std::map<std::string, SnapshotMetric, std::less<>>;
  using HookMap = std::map<std::string, MetricMap, std::less<>>;
  using AppMap = std::map<std::string, HookMap, std::less<>>;

  AppMap apps;

  const SnapshotMetric* Find(std::string_view app, std::string_view hook,
                             std::string_view metric) const;

  // Convenience readers: 0 when the metric is absent or of another kind.
  uint64_t CounterValue(std::string_view app, std::string_view hook,
                        std::string_view metric) const;
  int64_t GaugeValue(std::string_view app, std::string_view hook,
                     std::string_view metric) const;
  const HistogramSummary* Histogram(std::string_view app,
                                    std::string_view hook,
                                    std::string_view metric) const;

  // Renders the schema documented in docs/OBSERVABILITY.md.
  std::string ToJson(bool pretty = true) const;
};

// Hands out metric cells and snapshots them. Get-or-create: the same
// {app, hook, metric} key always returns the same cell, so a redeployed
// policy keeps accumulating into its app's counters. The internal lock
// covers registration and snapshotting only — never a metric bump.
class MetricsRegistry {
 public:
  std::shared_ptr<Counter> GetCounter(std::string_view app,
                                      std::string_view hook,
                                      std::string_view metric);
  std::shared_ptr<Gauge> GetGauge(std::string_view app, std::string_view hook,
                                  std::string_view metric);
  std::shared_ptr<syrup::Histogram> GetHistogram(std::string_view app,
                                                 std::string_view hook,
                                                 std::string_view metric);

  // Shard-local cells, mirroring PerCpuArrayMap: shard `s` gets a cell of
  // its own under the same {app, hook, metric} key, distinct from the base
  // cell and from every other shard's, so concurrent shard threads never
  // share a cache line on the bump path. TakeSnapshot() folds base + all
  // shards into the key's single snapshot entry (counters/gauges summed,
  // histograms merged). Shard threads should bump with IncRelaxed() so a
  // snapshot taken while they run stays race-free.
  std::shared_ptr<Counter> GetCounterShard(std::string_view app,
                                           std::string_view hook,
                                           std::string_view metric, int shard);
  std::shared_ptr<Gauge> GetGaugeShard(std::string_view app,
                                       std::string_view hook,
                                       std::string_view metric, int shard);
  std::shared_ptr<syrup::Histogram> GetHistogramShard(std::string_view app,
                                                      std::string_view hook,
                                                      std::string_view metric,
                                                      int shard);

  Snapshot TakeSnapshot() const;

  size_t NumMetrics() const;

 private:
  struct Key {
    std::string app;
    std::string hook;
    std::string metric;
    auto operator<=>(const Key&) const = default;
  };
  struct Cell {
    std::shared_ptr<Counter> counter;
    std::shared_ptr<Gauge> gauge;
    std::shared_ptr<syrup::Histogram> histogram;
    // Indexed by shard id; entries are created lazily by Get*Shard.
    std::vector<std::shared_ptr<Counter>> counter_shards;
    std::vector<std::shared_ptr<Gauge>> gauge_shards;
    std::vector<std::shared_ptr<syrup::Histogram>> histogram_shards;
  };

  mutable std::mutex mu_;
  std::map<Key, Cell> cells_;
};

}  // namespace syrup::obs

#endif  // SYRUP_SRC_OBS_METRICS_H_
