#include "src/core/flow_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include "src/common/hash.h"

namespace syrup {

namespace {

// Four counter probes + two doorkeeper probes per key, Kirsch-Mitzenmacher
// style: index_i = h1 + i * h2. Keys arrive already Mix64-finished (the
// cache hash), so the halves are well dispersed.
inline size_t SketchIndex(uint64_t hash, unsigned probe, size_t mask) {
  const uint64_t h1 = hash;
  const uint64_t h2 = (hash >> 31) | 1;  // odd, so probes never collapse
  return static_cast<size_t>(h1 + (probe + 1) * h2) & mask;
}

// Resolves the read set of a program whose facts already allow memoizing
// it (pure, or cacheable, which implies pure).
FlowCacheBinding ResolveReadSet(const bpf::AnalysisFacts& facts,
                                const bpf::Program& program) {
  // Defense in depth: purity already excludes map writes, but read_maps
  // alone never was the complete map footprint — a program with writes or
  // in-place atomics must not be memoized even if a bug upstream left the
  // purity bit set, so consult the write sets explicitly.
  if (!facts.write_maps.empty() || !facts.atomic_maps.empty()) {
    return FlowCacheBinding{};
  }
  FlowCacheBinding binding;
  binding.cacheable = true;
  binding.read_maps.reserve(facts.read_maps.size());
  for (int32_t index : facts.read_maps) {
    if (index < 0 || static_cast<size_t>(index) >= program.maps.size()) {
      // A read-set index the program cannot resolve means the facts do not
      // describe this program; refuse to cache rather than mis-key.
      return FlowCacheBinding{};
    }
    binding.read_maps.push_back(program.maps[static_cast<size_t>(index)].get());
  }
  return binding;
}

}  // namespace

FlowCacheBinding FlowCacheBinding::ForProgram(
    const bpf::AnalysisFacts& facts, const bpf::Program& program) {
  if (!facts.cacheable) {
    return FlowCacheBinding{};
  }
  FlowCacheBinding binding = ResolveReadSet(facts, program);
  if (binding.cacheable) {
    binding.pkt_read_mask = facts.pkt_read_mask;
  }
  return binding;
}

FlowCacheBinding FlowCacheBinding::ForPureProgram(
    const bpf::AnalysisFacts& facts, const bpf::Program& program) {
  return facts.pure ? ResolveReadSet(facts, program) : FlowCacheBinding{};
}

FlowCacheCounters FlowCacheCounters::Detached() {
  FlowCacheCounters c;
  c.hits = std::make_shared<obs::Counter>();
  c.misses = std::make_shared<obs::Counter>();
  c.invalidations = std::make_shared<obs::Counter>();
  c.uncacheable = std::make_shared<obs::Counter>();
  c.bypassed = std::make_shared<obs::Counter>();
  c.evictions = std::make_shared<obs::Counter>();
  c.admission_rejects = std::make_shared<obs::Counter>();
  c.resizes = std::make_shared<obs::Counter>();
  c.capacity = std::make_shared<obs::Gauge>();
  return c;
}

FlowCacheCounters FlowCacheCounters::InRegistry(
    obs::MetricsRegistry& registry, std::string_view hook) {
  FlowCacheCounters c;
  c.hits = registry.GetCounter("syrupd", hook, "flow_cache.hits");
  c.misses = registry.GetCounter("syrupd", hook, "flow_cache.misses");
  c.invalidations =
      registry.GetCounter("syrupd", hook, "flow_cache.invalidations");
  c.uncacheable =
      registry.GetCounter("syrupd", hook, "flow_cache.uncacheable");
  c.bypassed = registry.GetCounter("syrupd", hook, "flow_cache.bypassed");
  c.evictions = registry.GetCounter("syrupd", hook, "flow_cache.evictions");
  c.admission_rejects =
      registry.GetCounter("syrupd", hook, "flow_cache.admission_rejects");
  c.resizes = registry.GetCounter("syrupd", hook, "flow_cache.resizes");
  c.capacity = registry.GetGauge("syrupd", hook, "flow_cache.capacity");
  return c;
}

FlowCacheCounters FlowCacheCounters::InRegistryShard(
    obs::MetricsRegistry& registry, std::string_view hook, int shard) {
  FlowCacheCounters c;
  c.hits = registry.GetCounterShard("syrupd", hook, "flow_cache.hits", shard);
  c.misses =
      registry.GetCounterShard("syrupd", hook, "flow_cache.misses", shard);
  c.invalidations = registry.GetCounterShard("syrupd", hook,
                                             "flow_cache.invalidations", shard);
  c.uncacheable = registry.GetCounterShard("syrupd", hook,
                                           "flow_cache.uncacheable", shard);
  c.bypassed =
      registry.GetCounterShard("syrupd", hook, "flow_cache.bypassed", shard);
  c.evictions =
      registry.GetCounterShard("syrupd", hook, "flow_cache.evictions", shard);
  c.admission_rejects = registry.GetCounterShard(
      "syrupd", hook, "flow_cache.admission_rejects", shard);
  c.resizes =
      registry.GetCounterShard("syrupd", hook, "flow_cache.resizes", shard);
  c.capacity =
      registry.GetGaugeShard("syrupd", hook, "flow_cache.capacity", shard);
  return c;
}

// --- FrequencySketch --------------------------------------------------------

void FrequencySketch::Resize(size_t counters) {
  const size_t n = std::bit_ceil(std::max<size_t>(counters, 64));
  mask_ = n - 1;
  table_.assign(n / 16, 0);
  door_.assign(n / 64, 0);
  samples_ = 0;
  // ~8 samples per counter before aging: long enough that hot flows climb
  // well clear of one-hit wonders, short enough to track shifting traffic.
  sample_limit_ = 8 * n;
}

bool FrequencySketch::DoorkeeperTest(uint64_t hash) const {
  const size_t a = SketchIndex(hash, 4, mask_);
  const size_t b = SketchIndex(hash, 5, mask_);
  return (door_[a >> 6] >> (a & 63)) & 1 && (door_[b >> 6] >> (b & 63)) & 1;
}

void FrequencySketch::DoorkeeperSet(uint64_t hash) {
  const size_t a = SketchIndex(hash, 4, mask_);
  const size_t b = SketchIndex(hash, 5, mask_);
  door_[a >> 6] |= uint64_t{1} << (a & 63);
  door_[b >> 6] |= uint64_t{1} << (b & 63);
}

void FrequencySketch::Touch(uint64_t hash) {
  ++samples_;
  if (!DoorkeeperTest(hash)) {
    // First occurrence since the last aging: the doorkeeper absorbs it.
    DoorkeeperSet(hash);
  } else {
    // Conservative update: only bump the counters currently at the
    // minimum, which tightens the min-estimate against over-counting.
    size_t index[4];
    uint32_t count[4];
    uint32_t min = kMaxEstimate;
    for (unsigned p = 0; p < 4; ++p) {
      index[p] = SketchIndex(hash, p, mask_);
      count[p] = CounterAt(index[p]);
      min = std::min(min, count[p]);
    }
    if (min < kMaxEstimate) {
      for (unsigned p = 0; p < 4; ++p) {
        if (count[p] == min) {
          table_[index[p] >> 4] += uint64_t{1} << ((index[p] & 15) * 4);
        }
      }
    }
  }
  if (samples_ >= sample_limit_) {
    Age();
  }
}

uint32_t FrequencySketch::Estimate(uint64_t hash) const {
  uint32_t min = kMaxEstimate;
  for (unsigned p = 0; p < 4; ++p) {
    min = std::min(min, CounterAt(SketchIndex(hash, p, mask_)));
  }
  return min + (DoorkeeperTest(hash) ? 1 : 0);
}

void FrequencySketch::Age() {
  // Halve every 4-bit counter in parallel: shift the word and clear the
  // bit that crossed each nibble boundary.
  for (uint64_t& word : table_) {
    word = (word >> 1) & 0x7777777777777777ull;
  }
  std::fill(door_.begin(), door_.end(), 0);
  samples_ /= 2;  // the halved counters represent half the history
  ++agings_;
}

// --- ReuseSampler -----------------------------------------------------------

void ReuseSampler::Reset() {
  index_.assign(2 * kTrackedFlows, Tracked{0, 0});
  tracked_ = 0;
  threshold_ = kInitialThreshold;
  std::fill(std::begin(reuse_), std::end(reuse_), 0);
  cold_ = 0;
}

void ReuseSampler::Record(uint64_t hash, uint64_t now) {
  const size_t mask = index_.size() - 1;
  for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
    Tracked& t = index_[i];
    if (t.last == 0) {
      break;
    }
    if (t.hash == hash) {
      ++reuse_[std::bit_width(now - t.last - 1)];
      t.last = now;
      return;
    }
  }
  ++cold_;
  Track(hash, now);
  if (++tracked_ > kTrackedFlows) {
    HalveRate();
  }
}

void ReuseSampler::Track(uint64_t hash, uint64_t now) {
  const size_t mask = index_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (index_[i].last != 0) {
    i = (i + 1) & mask;
  }
  index_[i] = Tracked{hash, now};
}

void ReuseSampler::HalveRate() {
  // Halving the threshold keeps the sample spatially uniform: a tracked
  // flow survives iff it would have been sampled at the new rate. Repeat
  // until the set fits (one pass almost always suffices).
  while (tracked_ > kTrackedFlows) {
    threshold_ /= 2;
    std::vector<Tracked> old(index_.size(), Tracked{0, 0});
    old.swap(index_);
    tracked_ = 0;
    for (const Tracked& t : old) {
      if (t.last != 0 && t.hash < threshold_) {
        Track(t.hash, t.last);
        ++tracked_;
      }
    }
  }
}

uint64_t ReuseSampler::evidence() const {
  uint64_t total = cold_;
  for (uint64_t count : reuse_) {
    total += count;
  }
  return total;
}

void ReuseSampler::PredictHitRatios(double* hit_ratio,
                                    size_t log2_max) const {
  std::fill(hit_ratio, hit_ratio + log2_max + 1, 0.0);
  const uint64_t total = evidence();
  if (total == 0) {
    return;
  }
  // Walk the buckets in reuse-time order. `footprint` estimates fp(2^b):
  // across bucket b's span of 2^(b-1) lookups, P(reuse time > k) is taken
  // as the mean of its values at the two edges.
  const double max_flows = std::ldexp(1.0, static_cast<int>(log2_max) - 1);
  const auto n = static_cast<double>(total);
  uint64_t longer = total;  // accesses with reuse time > 2^(b-1)
  double footprint = 1;     // fp(1): the accessed flow itself
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t longer_next = longer - reuse_[b];  // > 2^b
    if (b > 0) {
      footprint += std::ldexp(
          (static_cast<double>(longer) + static_cast<double>(longer_next)) /
              (2 * n),
          static_cast<int>(b) - 1);
    }
    longer = longer_next;
    if (footprint > max_flows) {
      break;  // fp only grows: no later bucket fits either
    }
    if (reuse_[b] == 0) {
      continue;
    }
    const auto slots = static_cast<uint64_t>(std::ceil(2 * footprint));
    for (size_t s = static_cast<size_t>(std::bit_width(slots - 1));
         s <= log2_max; ++s) {
      hit_ratio[s] += static_cast<double>(reuse_[b]);
    }
  }
  for (size_t s = 0; s <= log2_max; ++s) {
    hit_ratio[s] /= n;
  }
}

void ReuseSampler::Age() {
  for (uint64_t& count : reuse_) {
    count /= 2;
  }
  cold_ /= 2;
}

// --- FlowDecisionCache ------------------------------------------------------

size_t FlowDecisionCache::RoundCapacity(size_t requested) {
  return std::bit_ceil(std::clamp(requested, kMinSlots, kMaxSlots));
}

void FlowDecisionCache::Configure(const FlowCacheConfig& config) {
  config_ = config;
  const size_t slots = RoundCapacity(config.capacity);
  // Adaptive shrink may go below the configured capacity (the config is a
  // starting point) but never below kShrinkFloor — unless the operator
  // asked for a smaller table to begin with (tiny test configs).
  floor_slots_ = std::min(slots, kShrinkFloor);
  slots_.assign(slots, Entry{});
  keys_.assign(slots * kMaxKeyBytes, 0);
  mask_ = slots - 1;
  sketch_.Resize(slots);
  sampler_.Reset();
  occupied_ = 0;
  clock_ = 0;
  window_end_ = slots;
  bypass_ = false;
  counters_.capacity->Set(static_cast<int64_t>(slots));
}

void FlowDecisionCache::BindCounters(FlowCacheCounters counters) {
  counters_ = std::move(counters);
  counters_.capacity->Set(static_cast<int64_t>(slots_.size()));
}

void FlowDecisionCache::MakeKey(const PacketView& pkt, uint64_t mask,
                                Key* out) {
  Key& key = *out;
  const size_t size = pkt.size();
  const uint16_t port = pkt.DstPort();
  const uint16_t len = static_cast<uint16_t>(size);
  std::memcpy(key.bytes, &port, sizeof(port));
  std::memcpy(key.bytes + 2, &len, sizeof(len));
  // The prefix is packed in a register as the bytes are gathered: loading
  // it back from the narrow stores would stall on store forwarding, and the
  // hash below waits on it.
  uint64_t prefix = uint64_t{port} | uint64_t{len} << 16;
  uint32_t pos = 4;
  // Gather run by run (masks are a few runs of adjacent bytes). A run of
  // n <= 8 bytes that ends inside the packet, at or past byte 8, is one
  // unaligned load of the 8 bytes ending there, shifted down; the bytes it
  // stores past the run are overwritten by the next run or lie beyond
  // key.len. Other runs take the byte loop, which also drops the bytes at
  // or past the packet's end.
  uint64_t m = mask;
  while (m != 0) {
    const auto first = static_cast<unsigned>(std::countr_zero(m));
    const unsigned n =
        std::min(8u, static_cast<unsigned>(std::countr_one(m >> first)));
    m &= ~(((uint64_t{1} << n) - 1) << first);
    const unsigned end = first + n;
    if (std::endian::native == std::endian::little && end >= 8 &&
        end <= size) {
      uint64_t word;
      std::memcpy(&word, pkt.start + end - 8, sizeof(word));
      word >>= 8 * (8 - n);
      if (pos < 8) {
        prefix |= word << (8 * pos);
      }
      std::memcpy(key.bytes + pos, &word, sizeof(word));
      pos += n;
      continue;
    }
    for (unsigned i = first; i < end && i < size; ++i) {
      const uint8_t byte = pkt.start[i];
      if (pos < 8) {
        prefix |= uint64_t{byte} << (8 * pos);
      }
      key.bytes[pos++] = byte;
    }
  }
  key.len = pos;
  key.prefix = prefix;
  // Mix64 over the key in 8-byte words, seeded with the length: one
  // finalizer round for the common <= 8-byte key (a bijection, so two such
  // keys of one length never share a hash), where byte-serial FNV-1a would
  // chain eight multiplies. Every packet of a cacheable deployment pays
  // this, bypassed ones included. The mask itself needn't be hashed: one
  // cache serves one hook, and every entry behind a port was produced under
  // that port's single deployment.
  uint64_t h = prefix ^ (uint64_t{pos} * 0x9e3779b97f4a7c15ull);
  for (uint32_t i = 8; i < pos; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, key.bytes + i, pos - i < 8 ? pos - i : 8);
    h = Mix64(h) ^ word;
  }
  key.hash = Mix64(h);
}

bool FlowDecisionCache::Lookup(const Key& key, uint64_t epoch,
                               uint64_t version_sum, Decision* out,
                               bool* stale) {
  *stale = false;
  if (config_.adaptive) {
    Observe(key);
  }
  const size_t base = static_cast<size_t>(key.hash) & mask_;
  for (size_t probe = 0; probe < kProbeWindow; ++probe) {
    const size_t slot = (base + probe) & mask_;
    Entry& entry = slots_[slot];
    if (!entry.valid || !SlotMatches(entry, slot, key)) {
      continue;
    }
    if (entry.epoch != epoch || entry.version_sum != version_sum) {
      // The flow is known but a read-set map changed (or the hook was
      // redeployed) since the decision was computed: self-invalidate.
      entry.valid = false;
      --occupied_;
      *stale = true;
      return false;
    }
    *out = entry.decision;
    return true;
  }
  return false;
}

void FlowDecisionCache::Insert(const Key& key, Decision decision,
                               uint64_t epoch, uint64_t version_sum) {
  // Every insert is a cache miss the dispatcher just paid for, so it is
  // exactly one access of this flow: feed the sketch here (and only here —
  // the doorkeeper fast path means hits never touch frequency state).
  if (config_.admission) {
    sketch_.Touch(key.hash);
  }

  const size_t base = static_cast<size_t>(key.hash) & mask_;
  size_t victim = slots_.size();  // npos
  uint32_t victim_estimate = 0;
  for (size_t probe = 0; probe < kProbeWindow; ++probe) {
    const size_t slot = (base + probe) & mask_;
    Entry& entry = slots_[slot];
    if (!entry.valid) {
      entry.hash = key.hash;
      entry.version_sum = version_sum;
      entry.epoch = epoch;
      entry.key_prefix = key.prefix;
      entry.key_len = key.len;
      entry.decision = decision;
      std::memcpy(KeyAt(slot), key.bytes, key.len);
      entry.valid = true;
      ++occupied_;
      return;
    }
    if (SlotMatches(entry, slot, key)) {
      // Refresh the existing entry for this flow.
      entry.version_sum = version_sum;
      entry.epoch = epoch;
      entry.decision = decision;
      return;
    }
    if (entry.epoch != epoch) {
      // A stale-epoch resident can never hit again: free real estate.
      victim = slot;
      victim_estimate = 0;
    } else if (victim == slots_.size()) {
      victim = slot;
      victim_estimate = config_.admission ? sketch_.Estimate(entry.hash) : 0;
    } else if (config_.admission && victim_estimate != 0) {
      const uint32_t estimate = sketch_.Estimate(entry.hash);
      if (estimate < victim_estimate) {
        victim = slot;
        victim_estimate = estimate;
      }
    }
  }

  // Probe window full of live entries: admission decides. Accounting uses
  // the single-writer IncRelaxed: each cache has exactly one dispatching
  // thread (its shard), but a metrics snapshot may Load() concurrently.
  if (config_.admission && victim_estimate != 0 &&
      sketch_.Estimate(key.hash) <= victim_estimate) {
    counters_.admission_rejects->IncRelaxed();
    return;
  }
  counters_.evictions->IncRelaxed();
  Entry& entry = slots_[victim];
  entry.hash = key.hash;
  entry.version_sum = version_sum;
  entry.epoch = epoch;
  entry.key_prefix = key.prefix;
  entry.key_len = key.len;
  entry.decision = decision;
  std::memcpy(KeyAt(victim), key.bytes, key.len);
  entry.valid = true;
}

void FlowDecisionCache::AdvanceWindow() {
  if (sampler_.evidence() >= ReuseSampler::kMinEvidence) {
    double predicted[kLog2MaxSlots + 1];
    sampler_.PredictHitRatios(predicted, kLog2MaxSlots);
    const double reachable = predicted[kLog2MaxSlots];
    size_t want = floor_slots_;
    while (want < kMaxSlots &&
           predicted[std::bit_width(want) - 1] < reachable - kSizingSlack) {
      want *= 2;
    }
    // Resize only toward a table that pays for itself; a stream no table
    // size can serve leaves the table as it is and closes the gate below.
    if (predicted[std::bit_width(want) - 1] >= kBreakEvenHitRatio) {
      if (want > slots_.size()) {
        ResizeTo(want);
      } else if (want * 4 <= slots_.size() && slots_.size() > floor_slots_) {
        // Shrink one step at a time with 4x hysteresis so a bursty lull
        // doesn't thrash the table.
        ResizeTo(slots_.size() / 2);
      }
    }
    bypass_ =
        predicted[std::bit_width(slots_.size()) - 1] < kBreakEvenHitRatio;
    sampler_.Age();
  }
  window_end_ = clock_ + slots_.size();
}

void FlowDecisionCache::Place(const Entry& entry, const uint8_t* key_bytes) {
  const size_t base = static_cast<size_t>(entry.hash) & mask_;
  for (size_t probe = 0; probe < kProbeWindow; ++probe) {
    const size_t index = (base + probe) & mask_;
    Entry& slot = slots_[index];
    if (!slot.valid) {
      slot = entry;
      std::memcpy(KeyAt(index), key_bytes, entry.key_len);
      ++occupied_;
      return;
    }
  }
  // No room in the new table's probe window: the entry is dropped, which
  // is an eviction by resize.
  counters_.evictions->IncRelaxed();
}

void FlowDecisionCache::ResizeTo(size_t new_slots) {
  std::vector<Entry> old = std::move(slots_);
  std::vector<uint8_t> old_keys = std::move(keys_);
  slots_.assign(new_slots, Entry{});
  keys_.assign(new_slots * kMaxKeyBytes, 0);
  mask_ = new_slots - 1;
  occupied_ = 0;
  // The sketch resizes (and so resets) with the table: frequency state is
  // recent-traffic state, and the admission fight restarts fairly.
  sketch_.Resize(new_slots);
  for (size_t i = 0; i < old.size(); ++i) {
    if (old[i].valid) {
      Place(old[i], old_keys.data() + i * kMaxKeyBytes);
    }
  }
  counters_.resizes->IncRelaxed();
  counters_.capacity->Set(static_cast<int64_t>(new_slots));
}

void FlowDecisionCache::Clear() {
  for (Entry& entry : slots_) {
    entry.valid = false;
  }
  occupied_ = 0;
}

}  // namespace syrup
