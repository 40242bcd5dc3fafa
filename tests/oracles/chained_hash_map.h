// Chained hash map: the pre-swiss-table HashMap, kept as a test oracle.
//
// This was the shipping hash map before the lock-free swiss-table rebuild
// (src/map/hash_map.h). It lives in the test tree, not in src/, for three
// jobs:
//
//   1. Differential oracle: map_test drives randomized op sequences against
//      both implementations and compares every observable (the same pattern
//      as tests/oracles/reference_simulator.h for the event engine).
//   2. Mutex baseline: bench/map_scale measures the lock-free read path
//      against these shared_mutex buckets (the >=3x contended-read gate).
//   3. Documentation of the bug the rebuild closes: DoLookup here returns
//      node->value.get() after the shared lock drops, so a concurrent
//      Delete can free the value while the caller still dereferences it —
//      a latent use-after-free. The swiss table closes it by construction
//      (value storage is never freed while the map lives; slot reuse is
//      epoch-gated). Do NOT use this class with concurrent delete traffic.
#ifndef SYRUP_TESTS_ORACLES_CHAINED_HASH_MAP_H_
#define SYRUP_TESTS_ORACLES_CHAINED_HASH_MAP_H_

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "src/common/hash.h"
#include "src/map/map.h"

namespace syrup {

class ChainedHashMap : public Map {
 public:
  explicit ChainedHashMap(MapSpec spec)
      : Map(std::move(spec)),
        bucket_count_(
            NextPow2(2 * static_cast<uint64_t>(this->spec().max_entries))),
        buckets_(bucket_count_) {
    if (2 * static_cast<uint64_t>(this->spec().max_entries) > kMaxBuckets) {
      NoteBucketClamp(bucket_count_);
    }
  }

  void* DoLookup(const void* key) override {
    const uint64_t hash = HashKey(key);
    Bucket& bucket = BucketFor(hash);
    // Read-mostly path: lookups only walk the chain, so they share the
    // bucket; value mutation goes through Map::Atomic* after release.
    // KNOWN-UNSAFE vs concurrent Delete: the returned pointer outlives the
    // shared lock (see the header comment). Kept verbatim as the oracle.
    std::shared_lock<std::shared_mutex> lock(bucket.mu);
    Node* node = FindLocked(bucket, key, hash);
    return node != nullptr ? node->value.get() : nullptr;
  }

  Status DoUpdate(const void* key, const void* value, UpdateFlag flag) override {
    const uint64_t hash = HashKey(key);
    Bucket& bucket = BucketFor(hash);
    std::unique_lock<std::shared_mutex> lock(bucket.mu);
    Node* node = FindLocked(bucket, key, hash);
    if (node != nullptr) {
      if (flag == UpdateFlag::kNoExist) {
        return AlreadyExistsError("key already present");
      }
      std::memcpy(node->value.get(), value, spec().value_size);
      return OkStatus();
    }
    if (flag == UpdateFlag::kExist) {
      return NotFoundError("key absent");
    }
    if (size_.load(std::memory_order_relaxed) >= spec().max_entries) {
      return ResourceExhaustedError("map full");
    }
    auto fresh = std::make_unique<Node>();
    fresh->hash = hash;
    fresh->key.assign(static_cast<const uint8_t*>(key),
                      static_cast<const uint8_t*>(key) + spec().key_size);
    fresh->value = std::make_unique<uint8_t[]>(spec().value_size);
    std::memcpy(fresh->value.get(), value, spec().value_size);
    fresh->next = std::move(bucket.head);
    bucket.head = std::move(fresh);
    size_.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  }

  Status DoDelete(const void* key) override {
    const uint64_t hash = HashKey(key);
    Bucket& bucket = BucketFor(hash);
    std::unique_lock<std::shared_mutex> lock(bucket.mu);
    std::unique_ptr<Node>* link = &bucket.head;
    while (*link != nullptr) {
      if ((*link)->hash == hash &&
          std::memcmp((*link)->key.data(), key, spec().key_size) == 0) {
        *link = std::move((*link)->next);
        size_.fetch_sub(1, std::memory_order_relaxed);
        return OkStatus();
      }
      link = &(*link)->next;
    }
    return NotFoundError("key absent");
  }

  uint32_t Size() const override {
    return size_.load(std::memory_order_relaxed);
  }

  uint32_t bucket_count() const { return bucket_count_; }

  void Visit(const VisitFn& fn) override {
    for (Bucket& bucket : buckets_) {
      std::unique_lock<std::shared_mutex> lock(bucket.mu);
      for (Node* node = bucket.head.get(); node != nullptr;
           node = node->next.get()) {
        fn(node->key.data(), node->value.get());
      }
    }
  }

  // The bucket table stops doubling at 2^20 buckets. Specs past the clamp
  // (>= 2^19 max_entries) still work but degrade toward longer chains, so
  // the constructor reports the clamp instead of degrading quietly.
  static constexpr uint64_t kMaxBuckets = 1u << 20;

 private:
  struct Node {
    // Full FNV-1a hash of `key`, computed once at insert. Chain walks
    // compare it before touching key bytes: a 64-bit mismatch rejects
    // non-matching nodes without a memcmp, so collision chains cost one
    // integer compare per wrong node for keys of any size.
    uint64_t hash = 0;
    std::vector<uint8_t> key;
    std::unique_ptr<uint8_t[]> value;
    std::unique_ptr<Node> next;
  };

  struct Bucket {
    std::shared_mutex mu;
    std::unique_ptr<Node> head;
  };

  // 64-bit on purpose: max_entries is a u32, so `2 * max_entries` computed
  // in u32 wraps for specs of 2^31 entries and beyond, collapsing the
  // table to a single bucket (every operation then contends on one lock
  // and walks one chain). The cap bounds memory for absurd specs.
  static uint32_t NextPow2(uint64_t n) {
    uint64_t p = 1;
    while (p < n && p < kMaxBuckets) {
      p <<= 1;
    }
    return static_cast<uint32_t>(p);
  }

  uint64_t HashKey(const void* key) const {
    return Fnv1a64(key, spec().key_size);
  }

  Bucket& BucketFor(uint64_t hash) {
    return buckets_[hash & (bucket_count_ - 1)];
  }

  Node* FindLocked(Bucket& bucket, const void* key, uint64_t hash) {
    for (Node* node = bucket.head.get(); node != nullptr;
         node = node->next.get()) {
      if (node->hash == hash &&
          std::memcmp(node->key.data(), key, spec().key_size) == 0) {
        return node;
      }
    }
    return nullptr;
  }

  uint32_t bucket_count_;
  std::vector<Bucket> buckets_;
  std::atomic<uint32_t> size_{0};
};

}  // namespace syrup

#endif  // SYRUP_TESTS_ORACLES_CHAINED_HASH_MAP_H_
