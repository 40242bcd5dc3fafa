// Flow-decision cache: per-hook memoization of verified matching functions.
//
// Syrup's NIC offload is fast because the matching function's *decision*
// is installed into the hardware flow table — subsequent packets of a flow
// skip policy execution entirely. This is the same idea for the software
// hooks: an open-addressed table in front of Syrupd::DispatchBatch that
// maps a flow key to the Decision the policy last produced.
//
// Correctness is static analysis + versioning, never heuristics:
//
//   * The verifier proves which programs are cacheable at all
//     (AnalysisFacts::cacheable: output depends only on packet bytes and
//     map reads) and which exact packet bytes feed the decision
//     (pkt_read_mask). The cache key is (dst port, packet length, those
//     masked bytes) — packet length participates because bounds checks
//     against pkt_end branch on it. Full-key memcmp on lookup: hash
//     collisions can evict, never produce a false hit.
//   * Every Map carries a monotonic version stamp bumped on Update/Delete.
//     Each cached entry stores the *sum* of the versions of the program's
//     read-set maps, captured before the policy ran; monotonicity makes
//     the sum strictly increase on any change, so a lookup whose current
//     sum differs sees a guaranteed miss (counted as an invalidation).
//   * Deploy/remove at a hook bumps the hook's epoch; entries stamped
//     with an older epoch never hit, which flushes the whole hook in O(1).
//
// Scale (the "flow cache at scale" design, see DESIGN.md):
//
//   * Admission is TinyLFU-style: a 4-bit counting-min sketch estimates
//     each flow's access frequency; when an insert would evict a live
//     entry, the newcomer must out-count the coldest resident or it is
//     rejected. A doorkeeper bit-set absorbs one-hit wonders before they
//     touch the counters, and because the sketch is only consulted on the
//     miss/insert path, a 100%-hit workload pays nothing for it.
//   * Sizing and bypass follow measured reuse (ReuseSampler). A
//     SHARDS-style spatial sample of flows records each sampled flow's
//     reuse time — lookups since its previous access — in log2 buckets,
//     and the buckets predict the hit ratio h(S) of every power-of-two
//     table size S. At each window boundary (one table length of lookups)
//     the table moves to the smallest S that reaches the hit ratio
//     reachable within kMaxSlots, and a bypass gate stays open only while
//     h(capacity) >= kBreakEvenHitRatio. While the gate is closed the
//     dispatcher still derives each key and feeds the sampler, but skips
//     the table and the sketch and runs the policy directly: a low-reuse
//     stream (uniform draws from a huge keyspace) costs one key derivation
//     per packet instead of a DRAM-resident probe and insert, and the table
//     never grows for it.
//
// The cache is deliberately not internally synchronized: in the simulator
// each hook's dispatch runs serialized (softirq model), and this mirrors a
// real per-core megaflow cache which is also core-private. Map versions
// and values, however, are read concurrently with userspace updaters —
// those races are exactly what the version capture-before-execute protocol
// makes safe (tests/flow_cache_race_test.cc hammers it under TSan/ASan).
#ifndef SYRUP_SRC_CORE_FLOW_CACHE_H_
#define SYRUP_SRC_CORE_FLOW_CACHE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/common/decision.h"
#include "src/map/map.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"

namespace syrup {

// The one knob surface for the flow cache (Syrupd::set_flow_cache_config,
// SyrupClient, syrupctl, and the experiment configs all traffic in this
// struct).
struct FlowCacheConfig {
  bool enabled = true;
  // Initial table size in slots (rounded up to a power of two). With
  // `adaptive` set this is just the starting point; without it, the table
  // stays at exactly this size.
  size_t capacity = 4096;
  // TinyLFU admission: cold flows cannot evict entries that out-count them.
  bool admission = true;
  // Size the table from sampled reuse and bypass it while the predicted
  // hit ratio is below break-even. Without it the table is fixed and
  // always consulted.
  bool adaptive = true;
};

// What a deployment needs to consult the cache, derived once at attach
// time from the verifier's facts. Maps are raw observers: the deployment's
// policy owns the program which owns the map shared_ptrs, and the cache
// binding dies with the PortEntry. The thread-policy memo
// (BytecodeGhostPolicy) keys on the tid instead of a flow key and uses the
// same read-set stamp, through ForPureProgram.
struct FlowCacheBinding {
  bool cacheable = false;
  uint64_t pkt_read_mask = 0;
  std::vector<const Map*> read_maps;

  // Invalidation signature: the read-set maps' version sum. Captured
  // before the policy executes on a miss; compared on every hit attempt.
  uint64_t VersionSum() const {
    uint64_t sum = 0;
    for (const Map* map : read_maps) {
      sum += map->version();
    }
    return sum;
  }

  // Builds the binding for a verified program. Cacheable only when the
  // facts say so; read-set indices resolve against the program's map table.
  static FlowCacheBinding ForProgram(const bpf::AnalysisFacts& facts,
                                     const bpf::Program& program);

  // The read-set half of ForProgram, for any context: `cacheable` (the
  // result may be memoized under a caller-chosen key) iff the facts say
  // the program is pure and its read set resolves. pkt_read_mask stays 0.
  static FlowCacheBinding ForPureProgram(const bpf::AnalysisFacts& facts,
                                         const bpf::Program& program);
};

// Per-hook cache counters, resolved from the daemon's registry under
// {"syrupd", <hook>, "flow_cache.*"} so syrupctl stats surfaces them.
// hits/misses/invalidations/uncacheable/bypassed are bumped by the
// dispatcher; evictions/admission_rejects/resizes (and the capacity gauge)
// by the cache itself once BindCounters hands it the same cells. With the
// cache enabled every dispatched packet lands in exactly one of hits,
// misses, bypassed and uncacheable (invalidations are a subset of misses).
struct FlowCacheCounters {
  std::shared_ptr<obs::Counter> hits;
  std::shared_ptr<obs::Counter> misses;
  std::shared_ptr<obs::Counter> invalidations;
  std::shared_ptr<obs::Counter> uncacheable;
  std::shared_ptr<obs::Counter> bypassed;
  std::shared_ptr<obs::Counter> evictions;
  std::shared_ptr<obs::Counter> admission_rejects;
  std::shared_ptr<obs::Counter> resizes;
  std::shared_ptr<obs::Gauge> capacity;

  static FlowCacheCounters Detached();
  static FlowCacheCounters InRegistry(obs::MetricsRegistry& registry,
                                      std::string_view hook);
  // Shard-local cells under the same keys as InRegistry: the registry sums
  // them into the hook's single snapshot entry, so a per-shard cache's
  // accounting folds into the per-hook totals (Syrupd::ConfigureSharding).
  static FlowCacheCounters InRegistryShard(obs::MetricsRegistry& registry,
                                           std::string_view hook, int shard);
};

// TinyLFU-style frequency sketch: a single array of 4-bit saturating
// counters probed at four positions per key (estimate = the minimum), plus
// a doorkeeper bit-set that absorbs a flow's first occurrence so one-hit
// wonders never dirty the counters. Every `8 * width` samples the counters
// halve and the doorkeeper clears, so the sketch tracks recent frequency,
// not all-time counts.
class FrequencySketch {
 public:
  static constexpr uint32_t kMaxEstimate = 15;

  FrequencySketch() { Resize(0); }

  // Sizes the sketch to ~`counters` 4-bit cells (power of two, min 64) and
  // clears all frequency state.
  void Resize(size_t counters);

  // Records one occurrence of `hash` and ages the sketch when the sample
  // budget is spent.
  void Touch(uint64_t hash);

  // Recent-frequency estimate for `hash` (min over the probed counters,
  // plus the doorkeeper's absorbed first hit).
  uint32_t Estimate(uint64_t hash) const;

  uint64_t samples() const { return samples_; }
  uint64_t agings() const { return agings_; }
  size_t width() const { return mask_ + 1; }

 private:
  uint32_t CounterAt(size_t index) const {
    return static_cast<uint32_t>(table_[index >> 4] >> ((index & 15) * 4)) &
           0xF;
  }
  bool DoorkeeperTest(uint64_t hash) const;
  void DoorkeeperSet(uint64_t hash);
  void Age();

  std::vector<uint64_t> table_;  // 16 4-bit counters per word
  std::vector<uint64_t> door_;   // 64 doorkeeper bits per word
  size_t mask_ = 0;
  uint64_t samples_ = 0;
  uint64_t sample_limit_ = 0;
  uint64_t agings_ = 0;
};

// SHARDS-style reuse sampler (Waldspurger et al., FAST '15). A flow is
// sampled iff its key hash is below a threshold; at most kTrackedFlows
// sampled flows are tracked, each with the lookup index of its last
// access. The threshold starts at a 1/16 sampling rate, so a hit on a small
// flow set rarely pays a sampler update, and halves (so does the rate)
// whenever the tracked set overflows, dropping the flows above it: the set
// stays bounded however many flows the hook sees. Every sampled access
// lands in a histogram: a reuse by its reuse time t (lookups since the
// flow's previous access) in bucket bit_width(t - 1), i.e. t in
// (2^(b-1), 2^b]; a flow's first sampled access as cold.
//
// The histogram predicts the hit ratio of a table of any size. The
// footprint fp(w), the expected number of distinct flows in w consecutive
// lookups, is the sum over k < w of P(reuse time > k), cold accesses
// counting as infinitely long reuses. A reuse of time t finds its flow
// resident in a table that holds fp(t) flows, and the table keeps half its
// slots free for the probe window, so a reuse in bucket b fits S slots when
// 2 * fp(2^b) <= S. fp(2^b) interpolates P(reuse time > k) linearly
// between the bucket edges, which is exact for the power-of-two step that
// a round robin over W flows needs (2 * W slots, rounded up).
class ReuseSampler {
 public:
  static constexpr size_t kTrackedFlows = 256;
  static constexpr uint64_t kInitialThreshold = ~uint64_t{0} >> 4;
  // Sampled accesses below which the histogram predicts nothing.
  static constexpr uint64_t kMinEvidence = 32;
  // Reuse-time buckets: bit_width(t - 1) for any 64-bit t.
  static constexpr size_t kBuckets = 65;

  // Clears all state and allocates the tracked-flow index.
  void Reset();

  // Records one access of the flow whose key hash is `hash` at lookup
  // index `now` (>= 1, increasing by one per access).
  void Observe(uint64_t hash, uint64_t now) {
    if (hash < threshold_) {
      Record(hash, now);
    }
  }

  // Sampled accesses currently in the histogram.
  uint64_t evidence() const;

  // hit_ratio[s] = predicted hit ratio of a table of 2^s slots, for every
  // s <= log2_max.
  void PredictHitRatios(double* hit_ratio, size_t log2_max) const;

  // Halves the histogram so it follows recent traffic.
  void Age();

  // Current sampling threshold (a flow is sampled iff hash < threshold).
  uint64_t threshold() const { return threshold_; }

 private:
  struct Tracked {
    uint64_t hash;
    uint64_t last;  // lookup index of the last access; 0 marks a free slot
  };

  void Record(uint64_t hash, uint64_t now);
  void Track(uint64_t hash, uint64_t now);
  void HalveRate();

  uint64_t threshold_ = kInitialThreshold;  // read by every Observe
  std::vector<Tracked> index_;  // 2 * kTrackedFlows, linear probing
  size_t tracked_ = 0;
  uint64_t reuse_[kBuckets] = {};
  uint64_t cold_ = 0;
};

// The table. Open-addressed with a short linear probe window,
// admission-gated eviction (a megaflow cache with a TinyLFU filter, not an
// LRU), and reuse-driven sizing with a bypass gate.
class FlowDecisionCache {
 public:
  // Key capacity: dst port (2) + packet length (2) + up to 64 masked
  // packet bytes (AnalysisFacts::kMaxTrackedPktBytes).
  static constexpr size_t kMaxKeyBytes =
      4 + static_cast<size_t>(bpf::AnalysisFacts::kMaxTrackedPktBytes);
  static constexpr size_t kMinSlots = 16;        // floor for tiny test configs
  static constexpr size_t kLog2MaxSlots = 18;
  static constexpr size_t kMaxSlots = size_t{1} << kLog2MaxSlots;
  static constexpr size_t kShrinkFloor = 1024;   // adaptive shrink stops here
  static constexpr size_t kProbeWindow = 4;

  // The bypass gate's break-even hit ratio. Per packet, a hit costs the
  // cached path C (dispatch, key derivation, probe); a miss costs C plus
  // the policy run and the insert; a bypassed packet costs the uncached
  // path U (dispatch, policy run) plus the key derivation. Counting the
  // insert like the dispatch work it stands beside, an open gate costs
  // C + (1 - h) * U against ~U bypassed, so it wins iff h > C / U.
  // BENCH_flow_cache.json measures C ("cached", at a 100% hit rate) and U
  // ("uncached"). The cheapest cacheable policy, MicaHome (Fig. 9's home
  // core steering), has the highest ratio; the highest over its five
  // scenarios is socket_select_f1536's 56.7 / 86.1 = 0.66. Dearer policies
  // break even lower (least_loaded_f256: 33.1 / 139.1 = 0.24), so for them
  // the one constant errs toward bypassing a table that would still pay.
  // A table grown past the caches misses dearer than U (its inserts reach
  // DRAM), which sizing to the smallest sufficient table keeps rare.
  static constexpr double kBreakEvenHitRatio = 0.66;
  // A table double the size must buy more than this share of hits.
  static constexpr double kSizingSlack = 1.0 / 32;

  explicit FlowDecisionCache(FlowCacheConfig config = {}) {
    Configure(config);
  }

  // Applies a new configuration: resets the table to config.capacity,
  // clears the sketch and the sampler, and opens the gate. Dropping
  // entries is always safe — the cache is semantically transparent.
  void Configure(const FlowCacheConfig& config);
  const FlowCacheConfig& config() const { return config_; }

  // Current table size in slots (moves under `adaptive`).
  size_t capacity() const { return slots_.size(); }

  // True while the predicted hit ratio at the current size is below
  // kBreakEvenHitRatio: the dispatcher then runs the policy directly and
  // only Observe()s the key. Never set without `adaptive`.
  bool bypassing() const { return bypass_; }

  // Re-homes eviction/admission/resize accounting (Syrupd binds its
  // registry-backed cells here so StatsSnapshot surfaces them).
  void BindCounters(FlowCacheCounters counters);

  // A materialized flow key plus its hash. Deliberately trivial (no
  // default member initializers): DispatchChunk keeps an uninitialized
  // kMaxDispatchBatch-sized array of these on the stack, and zeroing all
  // of them would dominate a batch-of-1 dispatch. MakeKey sets every
  // field it returns.
  struct Key {
    uint8_t bytes[kMaxKeyBytes + 8];  // + 8: MakeKey stores whole words
    uint32_t len;
    uint64_t hash;
    // The first min(len, 8) key bytes packed into a word, zero-padded:
    // compared inline from the hot entry so short keys never touch the
    // cold key array.
    uint64_t prefix;
  };

  // Derives the flow key for `pkt` under `mask` (the verifier's
  // pkt_read_mask): dst port, wire length, then every masked byte that is
  // inside the packet. Bytes the mask names beyond the packet's end are
  // simply absent — which is fine, because the length is part of the key.
  // The dispatcher derives into its probe array in place: copying a
  // returned Key reads it back across the narrow stores that built it.
  static void MakeKey(const PacketView& pkt, uint64_t mask, Key* key);
  static Key MakeKey(const PacketView& pkt, uint64_t mask) {
    Key key;
    MakeKey(pkt, mask, &key);
    return key;
  }

  // Warms the cache line of `hash`'s home slot. DispatchBatch hoists this
  // across a burst so the probes in the in-order phase hit warm lines.
  void PrefetchSlot(uint64_t hash) const {
    __builtin_prefetch(&slots_[static_cast<size_t>(hash) & mask_]);
  }

  // Counts one access of `key` toward sizing and the gate, and at a window
  // boundary (one table length of accesses) re-sizes the table and re-sets
  // the gate. Lookup calls it itself under `adaptive`; the dispatcher calls
  // it for each packet it bypasses, so a closed gate keeps seeing the
  // traffic that may reopen it.
  void Observe(const Key& key) {
    ++clock_;
    sampler_.Observe(key.hash, clock_);
    if (clock_ >= window_end_) {
      AdvanceWindow();
    }
  }

  // Probes for `key` stamped with the current `epoch` and `version_sum`.
  // Returns true and sets `*out` on a hit. A key match whose stamp is
  // stale reports false and counts as an invalidation in `*stale` (the
  // caller bumps metrics; the entry will be overwritten by the insert that
  // follows the re-execution).
  bool Lookup(const Key& key, uint64_t epoch, uint64_t version_sum,
              Decision* out, bool* stale);

  // Installs (or refreshes) the decision for `key`. `version_sum` must
  // have been captured *before* the policy executed, so a concurrent map
  // update during execution leaves the entry already-stale. Under
  // admission the insert may be *rejected*: when every slot in the probe
  // window holds a live entry, the newcomer must out-count the coldest
  // resident in the frequency sketch or the resident stays.
  void Insert(const Key& key, Decision decision, uint64_t epoch,
              uint64_t version_sum);

  // Drops every entry regardless of stamps (tests; epoch bumps make this
  // unnecessary in the daemon).
  void Clear();

  size_t OccupiedSlots() const { return occupied_; }

  // Test introspection into the admission sketch.
  const FrequencySketch& sketch() const { return sketch_; }

 private:
  // Hot half of a slot: everything a probe compares or stamps, 48 bytes so
  // a 4-slot probe window spans ~3 cache lines. The full key bytes live in
  // the parallel `keys_` array (kMaxKeyBytes stride); `key_prefix` holds
  // the first 8 of them so the common short key (port + len + a few masked
  // bytes) compares entirely from the hot line. At 100k+ resident flows the
  // table is DRAM-resident and probe cost is line count, not instructions.
  struct Entry {
    uint64_t hash = 0;
    uint64_t version_sum = 0;
    uint64_t epoch = 0;
    uint64_t key_prefix = 0;
    uint32_t key_len = 0;
    Decision decision = 0;
    bool valid = false;
  };

  // True when `slot` holds exactly `key` (hash, prefix, and — only for
  // keys longer than the inline prefix — the cold tail bytes).
  bool SlotMatches(const Entry& entry, size_t slot, const Key& key) const {
    return entry.hash == key.hash && entry.key_len == key.len &&
           entry.key_prefix == key.prefix &&
           (key.len <= 8 ||
            std::memcmp(KeyAt(slot) + 8, key.bytes + 8, key.len - 8) == 0);
  }

  static size_t RoundCapacity(size_t requested);

  uint8_t* KeyAt(size_t slot) { return keys_.data() + slot * kMaxKeyBytes; }
  const uint8_t* KeyAt(size_t slot) const {
    return keys_.data() + slot * kMaxKeyBytes;
  }

  // Window boundary: once the sampler holds kMinEvidence accesses, move the
  // table toward the smallest size that reaches the reachable hit ratio,
  // set the gate from the hit ratio predicted at the resulting size, and
  // age the sampler. Opens the next window either way.
  void AdvanceWindow();
  void ResizeTo(size_t new_slots);
  // Rehash helper: places `entry` (whose key bytes are `key_bytes`) without
  // admission (first-wins; a dropped entry on shrink counts as an eviction).
  void Place(const Entry& entry, const uint8_t* key_bytes);

  // What every packet reads, gate and sampler threshold included, comes
  // first so a bypassed packet touches one line of this object.
  bool bypass_ = false;
  uint64_t clock_ = 0;       // accesses observed since Configure
  uint64_t window_end_ = 0;  // clock_ value that closes the current window
  ReuseSampler sampler_;
  FlowCacheConfig config_;
  std::vector<Entry> slots_;
  std::vector<uint8_t> keys_;  // kMaxKeyBytes per slot, parallel to slots_
  size_t mask_ = 0;
  size_t floor_slots_ = kMinSlots;  // adaptive shrink never goes below this
  FrequencySketch sketch_;
  FlowCacheCounters counters_ = FlowCacheCounters::Detached();
  size_t occupied_ = 0;
};

}  // namespace syrup

#endif  // SYRUP_SRC_CORE_FLOW_CACHE_H_
