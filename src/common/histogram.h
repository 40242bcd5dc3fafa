// HDR-style log-linear histogram for latency recording.
//
// Values (nanoseconds) are bucketed with bounded relative error (~1/32 per
// bucket), so percentile queries over millions of samples are O(#buckets)
// and recording is O(1). The bucket array (~9 KB at the default range) is
// allocated by the first Record or non-empty Merge, so building a host costs
// no bucket memory for metrics-registry cells that have seen no sample yet
// (allocating at construction, HostStack's two delivery histograms raised
// perfbench's rocksdb_sita setup_s by ~25%); after that, recording never
// allocates.
#ifndef SYRUP_SRC_COMMON_HISTOGRAM_H_
#define SYRUP_SRC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace syrup {

class Histogram {
 public:
  // Tracks values in [0, max_value]; larger samples clamp to the last bucket.
  explicit Histogram(uint64_t max_value = uint64_t{1} << 40);

  void Record(uint64_t value);
  void RecordN(uint64_t value, uint64_t count);

  // Merges another histogram with the same geometry.
  void Merge(const Histogram& other);

  void Reset();

  uint64_t count() const { return total_count_; }
  uint64_t min() const;
  uint64_t max() const;
  double Mean() const;

  // quantile in [0,1]; e.g. 0.99 for p99. Returns the representative value of
  // the bucket containing that rank (upper edge).
  uint64_t ValueAtQuantile(double quantile) const;

  uint64_t Percentile(double pct) const { return ValueAtQuantile(pct / 100.0); }

  // Multi-line human-readable summary (for example programs).
  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 5;  // 32 linear sub-buckets per octave
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;

  void AllocateBuckets();
  size_t BucketIndex(uint64_t value) const;
  uint64_t BucketUpperEdge(size_t index) const;

  uint64_t max_value_;
  std::vector<uint64_t> buckets_;
  uint64_t total_count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_seen_;
  uint64_t max_seen_ = 0;
};

}  // namespace syrup

#endif  // SYRUP_SRC_COMMON_HISTOGRAM_H_
