#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "tests/oracles/reference_simulator.h"

// Global allocation counter for the zero-allocation assertions. Sanitizer
// builds interpose their own allocator, so counting is compiled out there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SYRUP_COUNT_GLOBAL_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SYRUP_COUNT_GLOBAL_ALLOCS 0
#else
#define SYRUP_COUNT_GLOBAL_ALLOCS 1
#endif
#else
#define SYRUP_COUNT_GLOBAL_ALLOCS 1
#endif

#if SYRUP_COUNT_GLOBAL_ALLOCS
namespace {
// Per-thread, not process-global: the zero-alloc gate below must only see
// allocations made by the engine under test, and sharded runs put other
// engines on other threads of this process (src/sim/sharded.h). Counting
// per thread scopes the assertion to the instance the test drives.
thread_local uint64_t t_thread_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_thread_allocs;
  if (void* ptr = std::malloc(size > 0 ? size : 1)) {
    return ptr;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#endif

namespace syrup {
namespace {

// A handle is a plain {Simulator*, slot, generation} triple: copying one
// touches no reference count.
static_assert(std::is_trivially_copyable_v<EventHandle> &&
              sizeof(EventHandle) == 16);

// The handle type an engine (Simulator or the ReferenceSimulator oracle)
// returns from ScheduleAt.
template <typename Sim>
using HandleOf = decltype(std::declval<Sim&>().ScheduleAt(
    Time{}, std::declval<void (*)()>()));

uint64_t ThreadAllocs() {
#if SYRUP_COUNT_GLOBAL_ALLOCS
  return t_thread_allocs;
#else
  return 0;
#endif
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&]() { order.push_back(3); });
  sim.ScheduleAt(10, [&]() { order.push_back(1); });
  sim.ScheduleAt(20, [&]() { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(Simulator, SameTimeEventsRunInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i]() { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&]() { ++fired; });
  sim.ScheduleAt(100, [&]() { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 10u);  // clock rests at the last dispatched event
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000u);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 100) {
      sim.ScheduleAfter(1, chain);
    }
  };
  sim.ScheduleAfter(1, chain);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.ScheduleAt(10, [&]() { fired = true; });
  EXPECT_TRUE(handle.valid());
  handle.Cancel();
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  EventHandle handle = sim.ScheduleAt(10, []() {});
  handle.Cancel();
  handle.Cancel();  // no crash
  EXPECT_FALSE(handle.valid());
  sim.RunToCompletion();
}

TEST(Simulator, CancelOneOfMany) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&]() { order.push_back(1); });
  EventHandle second = sim.ScheduleAt(20, [&]() { order.push_back(2); });
  sim.ScheduleAt(30, [&]() { order.push_back(3); });
  second.Cancel();
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, StopHaltsDispatch) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&]() {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAt(20, [&]() { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  // A later run resumes from where it stopped.
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ReturnsDispatchCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(static_cast<Time>(i + 1), []() {});
  }
  EXPECT_EQ(sim.RunToCompletion(), 5u);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.ScheduleAt(100, []() {});
  sim.RunToCompletion();
  EXPECT_DEATH(sim.ScheduleAt(50, []() {}), "scheduled in the past");
}

// --- pooled-engine specifics ------------------------------------------------

TEST(SimulatorPool, StaleHandleCannotTouchRecycledSlot) {
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = sim.ScheduleAt(10, [&]() { a_fired = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(a_fired);
  EXPECT_FALSE(a.valid());
  // B recycles A's pool slot (single free slot, LIFO freelist); A's stale
  // handle must neither see nor cancel it.
  EventHandle b = sim.ScheduleAt(20, [&]() { b_fired = true; });
  a.Cancel();
  EXPECT_TRUE(b.valid());
  sim.RunToCompletion();
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorPool, SelfCancelDuringDispatchIsInert) {
  Simulator sim;
  EventHandle handle;
  bool chained_fired = false;
  handle = sim.ScheduleAt(10, [&]() {
    // The event is already running: cancelling it (or any stale alias of
    // its slot) must not damage the slot or the event scheduled next, which
    // will recycle it.
    handle.Cancel();
    sim.ScheduleAt(20, [&]() { chained_fired = true; });
  });
  sim.RunToCompletion();
  EXPECT_TRUE(chained_fired);
  EXPECT_EQ(sim.Now(), 20u);
}

// The pooled engine keeps small pending sets in one heap and files events in
// the timing wheel only past Simulator::kSpillAt. ParkWheelFill puts a test
// simulator in wheel mode with ordinary schedule/cancel calls: one cancelled
// event at Now() and kSpillAt cancelled events at kParkedAt, later than any
// event the wheel tests check. The last push spills, and the event at Now()
// anchors the wheel at or below every event the test schedules. Cancelled
// events never run and never move Now(), but they stay pending until the
// wheel reaches them, so the engine cannot collapse back to heap mode before
// then. kParkedAt's tick has position 1 at every wheel level, so reaching it
// never cascades a bucket that an anchor at a level boundary (position 0 or
// 63) could misfile into: a misfiled event can come back only through a
// collapse, which the tests catch by checking `collapses` when it fires.
constexpr Time kParkedAt = ((Time{1} << 32) + 0x41041) << 8;  // ~1100 s

void ParkWheelFill(Simulator& sim) {
  sim.ScheduleAt(sim.Now(), []() {}).Cancel();
  for (size_t i = 0; i < Simulator::kSpillAt; ++i) {
    sim.ScheduleAt(kParkedAt, []() {}).Cancel();
  }
  ASSERT_EQ(sim.engine_stats().spills, 1u);
}

TEST(SimulatorPool, StopMidDispatchPreservesWheelState) {
  Simulator sim;
  ParkWheelFill(sim);
  std::vector<int> order;
  // Spread across many level-0 ticks and into level 1.
  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAt(100 + static_cast<Time>(i) * 1000,
                   [&order, i]() { order.push_back(i); });
  }
  sim.ScheduleAt(100 + 25 * 1000 + 1, [&]() { sim.Stop(); });
  sim.RunToCompletion();
  EXPECT_EQ(order.size(), 26u);  // 0..25 ran, then the stop event
  // Resume: the remaining events dispatch in order with nothing lost.
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
  EXPECT_GT(sim.engine_stats().spills, 0u);
}

TEST(SimulatorPool, FarFutureTimersCrossWheelLevelsAndOverflow) {
  Simulator sim;
  ParkWheelFill(sim);
  const uint64_t parked_overflow = sim.engine_stats().overflow_inserts;
  // Exponentially spread timers: levels 0..3 and, beyond ~4.3 s, the
  // overflow heap (2^32 ns exceeds the wheel span of 2^24 ticks * 256 ns).
  std::vector<Time> times;
  for (int k = 0; k < 40; ++k) {
    times.push_back((Time{1} << k) + static_cast<Time>(k) * 7);
  }
  std::vector<Time> fired;
  // Schedule in reverse so arrival order disagrees with time order.
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const Time when = *it;
    sim.ScheduleAt(when, [&fired, &sim]() { fired.push_back(sim.Now()); });
  }
  sim.RunToCompletion();
  // The parked events went to overflow too; the timers themselves must add
  // to it.
  EXPECT_GT(sim.engine_stats().overflow_inserts, parked_overflow);
  std::sort(times.begin(), times.end());
  EXPECT_EQ(fired, times);
  EXPECT_GT(sim.engine_stats().spills, 0u);
}

TEST(SimulatorPool, FullLevelRevolutionDistanceIsNotLost) {
  // Regression: a delta whose window delta wraps a full level revolution
  // (dispatch at tick 63, then +4095 ticks => level-1 window delta of
  // exactly 64) used to be filed into the bucket covering cur_tick_, which
  // NextOccupiedTick treats as always empty — the event never fired.
  Simulator sim;
  ParkWheelFill(sim);
  bool fired = false;
  sim.ScheduleAt(63 * 256, [&]() {
    sim.ScheduleAfter(4095 * 256, [&]() {
      fired = true;
      // Fired from the wheel, not rescued by a collapse to heap mode.
      EXPECT_EQ(sim.engine_stats().collapses, 0u);
    });
  });
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.Now(), Time{63 * 256} + 4095 * 256);
  EXPECT_GT(sim.engine_stats().spills, 0u);
}

TEST(SimulatorPool, RevolutionBoundariesFireFromEveryAnchor) {
  // Anchors sit just below each level's rollover; deltas straddle every
  // level's full revolution (64^k - 1, 64^k, 64^k + 1 ticks) so the window
  // delta wraps at each level and crosses the overflow boundary. Each pair
  // runs in its own simulator: with no unrelated event advancing the wheel
  // (the parked events sit past every target), a misfiled bucket can never
  // be rescued by a coincidental cascade.
  for (const Time anchor :
       {Time{63} * 256, Time{4095} * 256, ((Time{1} << 18) - 1) * 256,
        ((Time{1} << 24) - 1) * 256}) {
    for (int level = 1; level <= 4; ++level) {
      const uint64_t revolution = uint64_t{1} << (6 * level);
      for (const uint64_t delta : {revolution - 1, revolution, revolution + 1}) {
        Simulator sim;
        ParkWheelFill(sim);
        Time fired = 0;
        sim.ScheduleAt(anchor, [&sim, &fired, delta]() {
          sim.ScheduleAfter(delta * 256, [&sim, &fired]() {
            fired = sim.Now();
            // Fired from the wheel, not rescued by a collapse to heap mode.
            EXPECT_EQ(sim.engine_stats().collapses, 0u);
          });
        });
        sim.RunToCompletion();
        EXPECT_EQ(fired, anchor + delta * 256)
            << "anchor " << anchor << " delta " << delta;
        EXPECT_EQ(sim.pending_events(), 0u);
        EXPECT_GT(sim.engine_stats().spills, 0u);
      }
    }
  }
}

TEST(SimulatorPool, EarlierEventScheduledAfterPartialRunDispatchesFirst) {
  // Regression: RefillReady advances the wheel to the next occupied tick
  // even when that tick's events turn out to be past the horizon. An event
  // then scheduled into the skipped gap underflowed the insertion distance,
  // landed in overflow, and dispatched after the later event — with Now()
  // running backward.
  Simulator sim;
  ParkWheelFill(sim);
  std::vector<Time> fired;
  auto record = [&fired, &sim]() { fired.push_back(sim.Now()); };
  sim.ScheduleAt(1124, record);
  EXPECT_EQ(sim.RunUntil(1074), 0u);
  sim.ScheduleAt(500, record);
  sim.RunUntil(2000);
  EXPECT_EQ(fired, (std::vector<Time>{500, 1124}));
  EXPECT_GT(sim.engine_stats().spills, 0u);
}

template <typename Sim>
void ExpectFiredHandleIsInvalid() {
  Sim sim;
  HandleOf<Sim> handle = sim.ScheduleAt(10, []() {});
  EXPECT_TRUE(handle.valid());
  sim.RunToCompletion();
  EXPECT_FALSE(handle.valid());
  handle.Cancel();  // inert on a fired event
  EXPECT_EQ(sim.engine_stats().cancelled, 0u);
}

TEST(Simulator, FiredHandleIsInvalidOnBothEngines) {
  ExpectFiredHandleIsInvalid<Simulator>();
  ExpectFiredHandleIsInvalid<ReferenceSimulator>();
}

struct SteadyTick {
  Simulator* sim;
  uint64_t* remaining;
  uint64_t* lcg;
  void operator()() const {
    if (*remaining > 0) {
      --*remaining;
      *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
      sim->ScheduleAfter(100 + (*lcg >> 33) % 5'000,
                         SteadyTick{sim, remaining, lcg});
    }
  }
};

TEST(SimulatorPool, SteadyStateDispatchDoesNotAllocate) {
  // 64 in flight runs in heap mode; four times kSpillAt runs in the wheel.
  const uint64_t wheel_depth = 4 * Simulator::kSpillAt;
  for (const uint64_t depth : {uint64_t{64}, wheel_depth}) {
    SCOPED_TRACE(depth);
    Simulator sim;
    uint64_t remaining = 20'000;
    uint64_t lcg = 999;
    for (uint64_t i = 0; i < depth; ++i) {
      sim.ScheduleAfter(100 + i, SteadyTick{&sim, &remaining, &lcg});
    }
    // Warmup: grow the pool, ready heap, and wheel to their high-water marks.
    while (remaining > 10'000) {
      sim.RunUntil(sim.Now() + 100 * kMicrosecond);
    }
    const uint64_t internal_before = sim.engine_stats().internal_allocs();
    const uint64_t global_before = ThreadAllocs();
    sim.RunToCompletion();
    EXPECT_GT(sim.engine_stats().dispatched, 19'000u);
    // The engine's own accounting and this thread's operator new both agree:
    // a steady-state schedule/dispatch window allocates nothing. (Per-thread
    // so engines running on other shards' threads can't trip this gate.)
    EXPECT_EQ(sim.engine_stats().internal_allocs(), internal_before);
    EXPECT_EQ(ThreadAllocs(), global_before);
    EXPECT_EQ(sim.engine_stats().spills, depth > Simulator::kSpillAt ? 1u : 0u);
  }
}

TEST(SimulatorPool, LargeCallbacksSpillToHeapAndStillRun) {
  Simulator sim;
  // 64 bytes of captured payload: over the inline budget, so the engine
  // heap-boxes the callback and counts it.
  uint64_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t sum = 0;
  sim.ScheduleAt(10, [payload, &sum]() {
    for (uint64_t v : payload) {
      sum += v;
    }
  });
  sim.RunToCompletion();
  EXPECT_EQ(sum, 36u);
  EXPECT_EQ(sim.engine_stats().large_callbacks, 1u);
}

// Randomized schedule/cancel program dispatched on both engines: traces
// (event identity and final clock) must match exactly. The program mixes
// same-time ties, nested scheduling from callbacks, cancellations, a
// partial RunUntil, and far-future times that exercise the overflow heap.
template <typename Sim>
std::vector<uint64_t> DifferentialTrace() {
  Sim sim;
  std::vector<uint64_t> trace;
  uint64_t lcg = 0xabcdef12345ull;
  auto rnd = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  std::vector<HandleOf<Sim>> handles;
  for (uint64_t id = 0; id < 400; ++id) {
    const Time when = (rnd() % 64) == 0
                          ? 4'500'000'000ull + rnd() % 1'000'000'000ull
                          : rnd() % 50'000'000ull;
    handles.push_back(sim.ScheduleAt(when, [&trace, &sim, id]() {
      trace.push_back(id);
      if (id % 3 == 0) {
        sim.ScheduleAfter(1 + id % 1'000, [&trace, id]() {
          trace.push_back(10'000 + id);
        });
      }
    }));
  }
  for (size_t i = 0; i < handles.size(); i += 7) {
    handles[i].Cancel();
  }
  sim.RunUntil(20'000'000);
  trace.push_back(sim.engine_stats().dispatched);
  sim.RunToCompletion();
  trace.push_back(sim.Now());
  trace.push_back(sim.engine_stats().dispatched);
  return trace;
}

TEST(SimulatorDifferential, WheelMatchesReferenceOnRandomProgram) {
  EXPECT_EQ(DifferentialTrace<Simulator>(),
            DifferentialTrace<ReferenceSimulator>());
}

// --- heap mode <-> wheel mode ------------------------------------------------

uint64_t NextLcg(uint64_t* lcg) {
  *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
  return *lcg >> 33;
}

// Bursts of 100-250 events on a backlog that drains between them, so the
// pooled engine's pending count crosses kSpillAt and kCollapseAt in both
// directions over and over. Each burst puts a run of same-instant events
// around the push that spills, right at the earliest pending tick; a few
// events sit past the wheel span, so spills and collapses carry overflow
// entries; callbacks schedule follow-ups (some spill mid-dispatch); random
// handles are cancelled, live or not; runs stop at partial horizons, and one
// callback calls Stop(). The trace records event identity, clock and backlog.
struct HybridCounts {
  uint64_t spills = 0;
  uint64_t collapses = 0;
  bool stopped = false;
};

template <typename Sim>
std::vector<uint64_t> HybridTrace(HybridCounts* counts) {
  Sim sim;
  std::vector<uint64_t> trace;
  bool* stopped = &counts->stopped;
  uint64_t lcg = 0x5eed;
  std::vector<HandleOf<Sim>> handles;
  uint64_t next_id = 0;
  auto schedule = [&](Time when) {
    const uint64_t id = next_id++;
    handles.push_back(sim.ScheduleAt(when, [&trace, &sim, stopped, id]() {
      trace.push_back(id);
      trace.push_back(sim.Now());
      if (id % 5 == 0) {
        sim.ScheduleAfter(id % 3'000, [&trace, id]() {
          trace.push_back(1'000'000 + id);
        });
      }
      if (id >= 2'345 && !*stopped) {
        *stopped = true;
        sim.Stop();
      }
    }));
  };
  for (int round = 0; round < 100; ++round) {
    const size_t burst = 100 + NextLcg(&lcg) % 151;
    const Time tie = sim.Now() + NextLcg(&lcg) % 300;
    if (round % 25 == 0) {
      schedule(sim.Now() + 4'500'000'000ull + NextLcg(&lcg) % 1'000'000);
    }
    for (size_t i = 0; i < burst; ++i) {
      const bool at_tie = i % 8 == 0 || (i + 3 >= Simulator::kSpillAt &&
                                         i <= Simulator::kSpillAt + 3);
      schedule(at_tie ? tie : sim.Now() + NextLcg(&lcg) % 2'000'000);
    }
    for (int c = 0; c < 20; ++c) {
      handles[NextLcg(&lcg) % handles.size()].Cancel();
    }
    trace.push_back(sim.RunUntil(sim.Now() + NextLcg(&lcg) % 2'500'000));
    trace.push_back(sim.Now());
    trace.push_back(sim.pending_events());
  }
  sim.RunToCompletion();
  trace.push_back(sim.Now());
  trace.push_back(sim.engine_stats().dispatched);
  if constexpr (std::is_same_v<Sim, Simulator>) {
    counts->spills = sim.engine_stats().spills;
    counts->collapses = sim.engine_stats().collapses;
  }
  return trace;
}

TEST(SimulatorHybrid, MatchesReferenceAcrossManySpillsAndCollapses) {
  HybridCounts counts;
  const std::vector<uint64_t> wheel = HybridTrace<Simulator>(&counts);
  HybridCounts reference;
  EXPECT_EQ(wheel, HybridTrace<ReferenceSimulator>(&reference));
  EXPECT_TRUE(counts.stopped);
  EXPECT_GE(counts.spills, 30u);
  EXPECT_GE(counts.collapses, 30u);
}

// Self-rescheduling no-op: keeps a background of pending events alive.
struct Background {
  Simulator* sim;
  uint64_t* lcg;
  void operator()() const {
    sim->ScheduleAfter(1 + NextLcg(lcg) % 1'000'000, Background{sim, lcg});
  }
};

TEST(SimulatorHybrid, OscillatingSteadyStateDoesNotAllocate) {
  Simulator sim;
  uint64_t lcg = 42;
  // 20 pending in the background (under kCollapseAt, so each collapse moves
  // them); every cycle adds a burst of 150 that spills and then drains.
  for (int i = 0; i < 20; ++i) {
    sim.ScheduleAfter(1 + i, Background{&sim, &lcg});
  }
  auto cycle = [&]() {
    for (int i = 0; i < 150; ++i) {
      sim.ScheduleAfter(1 + NextLcg(&lcg) % 1'000'000, []() {});
    }
    sim.RunUntil(sim.Now() + 1'000'001);
  };
  for (int i = 0; i < 5; ++i) {
    cycle();
  }
  const Simulator::EngineStats before = sim.engine_stats();
  const uint64_t thread_before = ThreadAllocs();
  for (int i = 0; i < 50; ++i) {
    cycle();
  }
  EXPECT_EQ(sim.engine_stats().internal_allocs(), before.internal_allocs());
  EXPECT_EQ(ThreadAllocs(), thread_before);
  EXPECT_EQ(sim.engine_stats().spills - before.spills, 50u);
  EXPECT_EQ(sim.engine_stats().collapses - before.collapses, 50u);
}

TEST(SimulatorHybrid, NextEventTimeIsExactInBothModes) {
  // The same random schedule/cancel/run steps on both engines; after every
  // step the pooled engine's NextEventTime must equal the reference heap's
  // top (live or cancelled), in heap mode, in wheel mode and right after a
  // collapse.
  Simulator wheel;
  ReferenceSimulator ref;
  EXPECT_EQ(wheel.NextEventTime(), Simulator::kNoEventTime);
  EXPECT_EQ(ref.NextEventTime(), ReferenceSimulator::kNoEventTime);
  uint64_t lcg = 77;
  std::vector<EventHandle> wheel_handles;
  std::vector<ReferenceSimulator::Handle> ref_handles;
  int checked_after_collapse = 0;
  int checked_in_wheel_mode = 0;
  for (int step = 0; step < 600; ++step) {
    const uint64_t collapses_before = wheel.engine_stats().collapses;
    const uint64_t action = NextLcg(&lcg) % 4;
    if (action <= 1) {
      const uint64_t count = 1 + NextLcg(&lcg) % 60;
      for (uint64_t i = 0; i < count; ++i) {
        const Time when = wheel.Now() + NextLcg(&lcg) % 500'000;
        wheel_handles.push_back(wheel.ScheduleAt(when, []() {}));
        ref_handles.push_back(ref.ScheduleAt(when, []() {}));
      }
    } else if (action == 2 && !wheel_handles.empty()) {
      const size_t victim = NextLcg(&lcg) % wheel_handles.size();
      wheel_handles[victim].Cancel();
      ref_handles[victim].Cancel();
    } else {
      const Time horizon = wheel.Now() + NextLcg(&lcg) % 200'000;
      ASSERT_EQ(wheel.RunUntil(horizon), ref.RunUntil(horizon));
    }
    ASSERT_EQ(wheel.NextEventTime(), ref.NextEventTime()) << "step " << step;
    ASSERT_EQ(wheel.pending_events(), ref.pending_events());
    checked_after_collapse +=
        wheel.engine_stats().collapses != collapses_before ? 1 : 0;
    checked_in_wheel_mode += wheel.pending_events() > Simulator::kSpillAt;
  }
  EXPECT_GT(wheel.engine_stats().spills, 3u);
  EXPECT_GT(checked_after_collapse, 3);
  EXPECT_GT(checked_in_wheel_mode, 10);
}

TEST(SimulatorHybrid, NextEventTimeCollapsesAfterStop) {
  // A Stop() that leaves at most kCollapseAt pending in wheel mode exits
  // before the run loop's refill; NextEventTime then does the collapse.
  Simulator sim;
  const Time last = 1'000 * (Simulator::kSpillAt + 1);
  for (Time when = 1'000; when <= last; when += 1'000) {
    sim.ScheduleAt(when, [&sim, when, last]() {
      if (when == last - 1'000 * Simulator::kCollapseAt) {
        sim.Stop();
      }
    });
  }
  ASSERT_EQ(sim.engine_stats().spills, 1u);
  sim.RunToCompletion();
  EXPECT_EQ(sim.pending_events(), Simulator::kCollapseAt);
  EXPECT_EQ(sim.engine_stats().collapses, 0u);
  EXPECT_EQ(sim.NextEventTime(), last - 1'000 * (Simulator::kCollapseAt - 1));
  EXPECT_EQ(sim.engine_stats().collapses, 1u);
  sim.RunToCompletion();
  EXPECT_EQ(sim.Now(), last);
}

TEST(SimulatorHybrid, SpillAndCollapseCountsAreExact) {
  Simulator sim;
  // One event per 1 us, so every level-0 tick holds at most one event and
  // the ready heap empties after each dispatch.
  Time next = 0;
  auto schedule = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      next += 1'000;
      sim.ScheduleAt(next, []() {});
    }
  };
  auto stats = [&sim]() {
    return std::vector<uint64_t>{sim.engine_stats().spills,
                                 sim.engine_stats().collapses};
  };
  schedule(Simulator::kSpillAt);
  EXPECT_EQ(stats(), (std::vector<uint64_t>{0, 0}));
  schedule(1);
  EXPECT_EQ(stats(), (std::vector<uint64_t>{1, 0}));
  // Hysteresis: draining to kCollapseAt + 1 and refilling well past
  // kSpillAt stays in wheel mode.
  const size_t to_drain = Simulator::kSpillAt - Simulator::kCollapseAt;
  sim.RunUntil(sim.Now() + 1'000 * to_drain);
  EXPECT_EQ(sim.pending_events(), Simulator::kCollapseAt + 1);
  schedule(2 * Simulator::kSpillAt);
  EXPECT_EQ(stats(), (std::vector<uint64_t>{1, 0}));
  // Drain to exactly kCollapseAt: the next refill collapses.
  sim.RunUntil(sim.Now() + 1'000 * (2 * Simulator::kSpillAt + 1));
  EXPECT_EQ(sim.pending_events(), Simulator::kCollapseAt);
  EXPECT_EQ(stats(), (std::vector<uint64_t>{1, 1}));
  // Heap mode again: filling to kSpillAt does not spill, one more does.
  schedule(Simulator::kSpillAt - Simulator::kCollapseAt);
  EXPECT_EQ(stats(), (std::vector<uint64_t>{1, 1}));
  schedule(1);
  EXPECT_EQ(stats(), (std::vector<uint64_t>{2, 1}));
  sim.RunToCompletion();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.Now(), next);
  EXPECT_EQ(stats(), (std::vector<uint64_t>{2, 2}));
  // An empty engine stays in heap mode.
  sim.RunUntil(next + 1'000'000);
  EXPECT_EQ(stats(), (std::vector<uint64_t>{2, 2}));
}

}  // namespace
}  // namespace syrup
