#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace syrup {
namespace {

constexpr uint64_t kNoTick = std::numeric_limits<uint64_t>::max();

}  // namespace

Simulator::Simulator() {
  for (auto& level : buckets_) {
    for (uint32_t& head : level) {
      head = kNil;
    }
  }
  // Heap mode never holds more than kSpillAt + 1 entries, so it never grows
  // ready_; a collapse moves at most kCollapseAt into it.
  ready_.reserve(kSpillAt + 1);
}

Simulator::~Simulator() {
  // Pending events may hold non-trivial (or heap-spilled) callbacks.
  for (auto& slab : slabs_) {
    for (uint32_t i = 0; i < kSlabSize; ++i) {
      if (slab[i].engaged) {
        DestroyCallback(slab[i]);
      }
    }
  }
}

void Simulator::DestroyCallback(EventSlot& slot) {
  if (slot.destroy != nullptr) {
    slot.destroy(slot.storage);
  }
  slot.engaged = false;
}

uint32_t Simulator::AllocSlot() {
  if (free_head_ == kNil) {
    ++stats_.slab_allocs;
    const uint32_t base = static_cast<uint32_t>(slabs_.size()) * kSlabSize;
    slabs_.push_back(std::make_unique<EventSlot[]>(kSlabSize));
    EventSlot* slab = slabs_.back().get();
    // Thread the fresh slab in reverse so low indices pop first.
    for (uint32_t i = kSlabSize; i-- > 0;) {
      slab[i].next = free_head_;
      free_head_ = base + i;
    }
  }
  const uint32_t idx = free_head_;
  free_head_ = SlotAt(idx).next;
  return idx;
}

void Simulator::ReleaseSlot(uint32_t idx) {
  EventSlot& slot = SlotAt(idx);
  DestroyCallback(slot);
  ++slot.gen;  // stale handles can no longer see this slot
  slot.cancelled = false;
  slot.next = free_head_;
  free_head_ = idx;
  --pending_;
}

void Simulator::PushReady(HeapEntry entry) {
  if (ready_.size() == ready_.capacity()) {
    ++stats_.container_growths;
  }
  ready_.push_back(entry);
  // During a bucket splice AdvanceTo re-heapifies once at the end; outside
  // one the heap invariant must hold after every push.
  if (!splicing_ready_) {
    std::push_heap(ready_.begin(), ready_.end(), HeapAfter{});
  }
}

void Simulator::PushOverflow(HeapEntry entry) {
  if (overflow_.size() == overflow_.capacity()) {
    ++stats_.container_growths;
  }
  overflow_.push_back(entry);
  std::push_heap(overflow_.begin(), overflow_.end(), HeapAfter{});
}

bool Simulator::FitsWheel(uint64_t tick) const {
  // The wheel addresses exactly the aligned span window containing
  // cur_tick_: outside it the top level's bucket for `tick` coincides with
  // the bucket covering cur_tick_, which must stay empty.
  return (tick >> (kLevelBits * kLevels)) ==
         (cur_tick_ >> (kLevelBits * kLevels));
}

void Simulator::Enqueue(uint32_t idx) {
  if (spilled_) {
    InsertPending(idx);
    return;
  }
  const EventSlot& slot = SlotAt(idx);
  PushReady(HeapEntry{slot.when, slot.seq, idx});
  if (ready_.size() > kSpillAt) {
    Spill();
  }
}

void Simulator::InsertPending(uint32_t idx) {
  EventSlot& slot = SlotAt(idx);
  const uint64_t tick = slot.when >> kTickShift;
  // tick < cur_tick_ is reachable: a partial RunUntil advances the wheel to
  // the next occupied tick even when its events sit past the horizon, and a
  // later ScheduleAt may target the gap that was skipped. Such events (and
  // current-tick ones) go straight into the ready heap, which keeps the
  // global (when, seq) order because every wheel/overflow event has
  // tick > cur_tick_ and therefore a strictly later time.
  if (tick <= cur_tick_) {
    PushReady(HeapEntry{slot.when, slot.seq, idx});
    return;
  }
  if (!FitsWheel(tick)) {
    ++stats_.overflow_inserts;
    PushOverflow(HeapEntry{slot.when, slot.seq, idx});
    return;
  }
  // The highest bit where tick and cur_tick_ differ picks the level; that
  // guarantees the target bucket differs from the one covering cur_tick_.
  // (A distance-based level underestimates when the window delta wraps a
  // full revolution: cur_tick_=63, tick=4158 has distance 4095 => level 1,
  // but both ticks share level-1 bucket 0 and the event would be lost.)
  const int level = (std::bit_width(tick ^ cur_tick_) - 1) / kLevelBits;
  const uint32_t pos =
      static_cast<uint32_t>(tick >> (kLevelBits * level)) & (kSlotsPerLevel - 1);
  slot.next = buckets_[level][pos];
  buckets_[level][pos] = idx;
  occupied_[level] |= uint64_t{1} << pos;
}

uint64_t Simulator::NextOccupiedTick() const {
  uint64_t best = kNoTick;
  for (int level = 0; level < kLevels; ++level) {
    const int shift = kLevelBits * level;
    const uint32_t pos =
        static_cast<uint32_t>(cur_tick_ >> shift) & (kSlotsPerLevel - 1);
    // The bucket covering cur_tick_ is always empty (spliced/cascaded on
    // arrival), so every occupied bucket is 1..63 windows ahead.
    const uint64_t mask = occupied_[level] & ~(uint64_t{1} << pos);
    if (mask == 0) {
      continue;
    }
    const uint64_t rotated = std::rotr(mask, (pos + 1) & 63);
    const uint64_t windows_ahead =
        static_cast<uint64_t>(std::countr_zero(rotated)) + 1;
    const uint64_t candidate = ((cur_tick_ >> shift) + windows_ahead) << shift;
    if (candidate == cur_tick_ + 1) {
      // Nothing can open earlier than the adjacent tick, and AdvanceTo
      // cascades every level's bucket covering it, so ties at other levels
      // need no inspection. Dense workloads take this exit on almost every
      // refill, skipping the remaining levels and the overflow peek.
      return candidate;
    }
    best = std::min(best, candidate);
  }
  if (!overflow_.empty()) {
    best = std::min(best, overflow_.front().when >> kTickShift);
  }
  return best;
}

void Simulator::AdvanceTo(uint64_t tick) {
  cur_tick_ = tick;
  // ready_ is empty here (RefillReady only advances an exhausted window), so
  // appending raw and heapifying once beats per-element push_heap.
  splicing_ready_ = true;
  // Far-future events that fell inside the wheel's window re-file normally.
  // The drain condition mirrors InsertPending's overflow criterion exactly,
  // so a popped event can never bounce back into overflow (which would make
  // it the front again and loop forever). Overflow is a min-heap on when, so
  // once the front is out of the window every later entry is too.
  while (!overflow_.empty()) {
    const uint64_t otick = overflow_.front().when >> kTickShift;
    if (otick > cur_tick_ && !FitsWheel(otick)) {
      break;
    }
    const uint32_t idx = overflow_.front().slot;
    std::pop_heap(overflow_.begin(), overflow_.end(), HeapAfter{});
    overflow_.pop_back();
    InsertPending(idx);
  }
  // Cascade top-down: each redistributed event lands strictly below its
  // source level (or in the ready heap), never in a bucket covering `tick`.
  for (int level = kLevels - 1; level >= 1; --level) {
    const int shift = kLevelBits * level;
    const uint32_t pos =
        static_cast<uint32_t>(tick >> shift) & (kSlotsPerLevel - 1);
    if ((occupied_[level] & (uint64_t{1} << pos)) == 0) {
      continue;
    }
    occupied_[level] &= ~(uint64_t{1} << pos);
    uint32_t idx = buckets_[level][pos];
    buckets_[level][pos] = kNil;
    ++stats_.cascades;
    while (idx != kNil) {
      const uint32_t next = SlotAt(idx).next;
      InsertPending(idx);
      idx = next;
    }
  }
  const uint32_t pos0 = static_cast<uint32_t>(tick) & (kSlotsPerLevel - 1);
  if ((occupied_[0] & (uint64_t{1} << pos0)) != 0) {
    occupied_[0] &= ~(uint64_t{1} << pos0);
    uint32_t idx = buckets_[0][pos0];
    buckets_[0][pos0] = kNil;
    while (idx != kNil) {
      EventSlot& slot = SlotAt(idx);
      const uint32_t next = slot.next;
      PushReady(HeapEntry{slot.when, slot.seq, idx});
      idx = next;
    }
  }
  splicing_ready_ = false;
  if (ready_.size() > 1) {
    std::make_heap(ready_.begin(), ready_.end(), HeapAfter{});
  }
}

void Simulator::Spill() {
  ++stats_.spills;
  spilled_ = true;
  // The wheel and overflow are empty, so any anchor at or below the earliest
  // pending tick is valid; the front's own tick keeps the fewest events in
  // ready_. Everything later is refiled in place: InsertPending sends a tick
  // past cur_tick_ to the wheel or overflow, never back into ready_.
  cur_tick_ = ready_.front().when >> kTickShift;
  size_t kept = 0;
  for (size_t i = 0; i < ready_.size(); ++i) {
    const HeapEntry entry = ready_[i];
    if ((entry.when >> kTickShift) == cur_tick_) {
      ready_[kept++] = entry;
    } else {
      InsertPending(entry.slot);
    }
  }
  ready_.resize(kept);
  std::make_heap(ready_.begin(), ready_.end(), HeapAfter{});
}

void Simulator::Collapse() {
  ++stats_.collapses;
  spilled_ = false;
  // ready_ is empty and at most kCollapseAt events are pending, so the
  // splice fits its reserved capacity.
  splicing_ready_ = true;
  for (int level = 0; level < kLevels; ++level) {
    for (uint64_t bits = occupied_[level]; bits != 0; bits &= bits - 1) {
      const int pos = std::countr_zero(bits);
      for (uint32_t idx = buckets_[level][pos]; idx != kNil;
           idx = SlotAt(idx).next) {
        const EventSlot& slot = SlotAt(idx);
        PushReady(HeapEntry{slot.when, slot.seq, idx});
      }
      buckets_[level][pos] = kNil;
    }
    occupied_[level] = 0;
  }
  for (const HeapEntry& entry : overflow_) {
    PushReady(entry);
  }
  overflow_.clear();
  splicing_ready_ = false;
  std::make_heap(ready_.begin(), ready_.end(), HeapAfter{});
}

bool Simulator::RefillReady(Time horizon) {
  if (!spilled_) {
    return !ready_.empty();
  }
  while (ready_.empty()) {
    if (pending_ <= kCollapseAt) {
      Collapse();
      return !ready_.empty();
    }
    const uint64_t next = NextOccupiedTick();
    if (next == kNoTick) {
      return false;
    }
    if ((next << kTickShift) > horizon) {
      return false;  // the next window opens after the horizon
    }
    AdvanceTo(next);
  }
  return true;
}

Time Simulator::NextEventTime() {
  // In heap mode the front is exact. In wheel mode, RefillReady with an
  // unbounded horizon advances the wheel far enough to surface the
  // globally-next event in the ready heap (or collapses), making the bound
  // exact rather than a bucket-window start.
  if (ready_.empty() && !RefillReady(kNoEventTime)) {
    return kNoEventTime;
  }
  return ready_.front().when;
}

uint64_t Simulator::RunImpl(Time horizon, bool advance_clock_on_idle) {
  stopped_ = false;
  uint64_t dispatched = 0;
  while (!stopped_) {
    if (ready_.empty() && !RefillReady(horizon)) {
      break;
    }
    const HeapEntry top = ready_.front();
    if (top.when > horizon) {
      break;
    }
    std::pop_heap(ready_.begin(), ready_.end(), HeapAfter{});
    ready_.pop_back();
    EventSlot& slot = SlotAt(top.slot);
    if (slot.cancelled) {
      ReleaseSlot(top.slot);
      continue;
    }
    now_ = top.when;
    // Invalidate handles before running: a callback cancelling itself (or a
    // stale handle to this slot) must be a no-op, not a slot corruption.
    ++slot.gen;
    slot.invoke(slot.storage);
    ReleaseSlot(top.slot);
    ++dispatched;
  }
  stats_.dispatched += dispatched;
  if (advance_clock_on_idle && pending_ == 0 && now_ < horizon) {
    now_ = horizon;
    cur_tick_ = horizon >> kTickShift;  // re-anchor the (empty) wheel
  }
  return dispatched;
}

uint64_t Simulator::RunUntil(Time horizon) {
  return RunImpl(horizon, /*advance_clock_on_idle=*/true);
}

uint64_t Simulator::RunToCompletion() {
  return RunImpl(std::numeric_limits<Time>::max(),
                 /*advance_clock_on_idle=*/false);
}

bool Simulator::PooledValid(uint32_t idx, uint32_t gen) const {
  if (idx >= slabs_.size() * kSlabSize) {
    return false;
  }
  const EventSlot& slot = SlotAt(idx);
  return slot.gen == gen && slot.engaged && !slot.cancelled;
}

void Simulator::CancelPooled(uint32_t idx, uint32_t gen) {
  if (idx >= slabs_.size() * kSlabSize) {
    return;
  }
  EventSlot& slot = SlotAt(idx);
  if (slot.gen != gen || !slot.engaged || slot.cancelled) {
    return;  // stale handle: the event fired or the slot was recycled
  }
  slot.cancelled = true;
  ++stats_.cancelled;
}

}  // namespace syrup
