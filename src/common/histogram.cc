#include "src/common/histogram.h"

#include <bit>
#include <limits>
#include <sstream>

#include "src/common/logging.h"

namespace syrup {

Histogram::Histogram(uint64_t max_value)
    : max_value_(max_value),
      min_seen_(std::numeric_limits<uint64_t>::max()) {
  SYRUP_CHECK_GT(max_value, 0u);
}

void Histogram::AllocateBuckets() {
  buckets_.assign(BucketIndex(max_value_) + 1, 0);
}

size_t Histogram::BucketIndex(uint64_t value) const {
  if (value > max_value_) {
    value = max_value_;
  }
  if (value < kSubBuckets) {
    return static_cast<size_t>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - kSubBucketBits;
  const uint64_t scaled = value >> shift;  // in [kSubBuckets, 2*kSubBuckets)
  const size_t octave = static_cast<size_t>(msb - kSubBucketBits + 1);
  return octave * kSubBuckets + static_cast<size_t>(scaled - kSubBuckets);
}

uint64_t Histogram::BucketUpperEdge(size_t index) const {
  if (index < kSubBuckets) {
    return index;
  }
  const size_t octave = index / kSubBuckets;
  const size_t sub = index % kSubBuckets;
  const int shift = static_cast<int>(octave) - 1;
  return ((kSubBuckets + sub + 1) << shift) - 1;
}

void Histogram::Record(uint64_t value) { RecordN(value, 1); }

void Histogram::RecordN(uint64_t value, uint64_t count) {
  if (count == 0) {
    return;
  }
  if (buckets_.empty()) {
    AllocateBuckets();
  }
  buckets_[BucketIndex(value)] += count;
  total_count_ += count;
  sum_ += value * count;
  if (value < min_seen_) {
    min_seen_ = value;
  }
  if (value > max_seen_) {
    max_seen_ = value;
  }
}

void Histogram::Merge(const Histogram& other) {
  SYRUP_CHECK_EQ(max_value_, other.max_value_);
  if (other.total_count_ == 0) {
    return;
  }
  if (buckets_.empty()) {
    AllocateBuckets();
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  total_count_ += other.total_count_;
  sum_ += other.sum_;
  if (other.min_seen_ < min_seen_) {
    min_seen_ = other.min_seen_;
  }
  if (other.max_seen_ > max_seen_) {
    max_seen_ = other.max_seen_;
  }
}

void Histogram::Reset() {
  buckets_.assign(buckets_.size(), 0);
  total_count_ = 0;
  sum_ = 0;
  min_seen_ = std::numeric_limits<uint64_t>::max();
  max_seen_ = 0;
}

uint64_t Histogram::min() const { return total_count_ == 0 ? 0 : min_seen_; }
uint64_t Histogram::max() const { return max_seen_; }

double Histogram::Mean() const {
  if (total_count_ == 0) {
    return 0.0;
  }
  return static_cast<double>(sum_) / static_cast<double>(total_count_);
}

uint64_t Histogram::ValueAtQuantile(double quantile) const {
  if (total_count_ == 0) {
    return 0;
  }
  if (quantile < 0.0) {
    quantile = 0.0;
  }
  if (quantile > 1.0) {
    quantile = 1.0;
  }
  const uint64_t target = static_cast<uint64_t>(
      quantile * static_cast<double>(total_count_) + 0.5);
  uint64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i];
    if (running >= target && buckets_[i] > 0) {
      // Don't report an edge beyond the true max; keeps p100 == max().
      const uint64_t edge = BucketUpperEdge(i);
      return edge > max_seen_ ? max_seen_ : edge;
    }
  }
  return max_seen_;
}

std::string Histogram::Summary() const {
  std::ostringstream os;
  os << "count=" << total_count_ << " mean=" << Mean() << "ns"
     << " p50=" << Percentile(50) << "ns"
     << " p90=" << Percentile(90) << "ns"
     << " p99=" << Percentile(99) << "ns"
     << " p99.9=" << Percentile(99.9) << "ns"
     << " max=" << max_seen_ << "ns";
  return os.str();
}

}  // namespace syrup
