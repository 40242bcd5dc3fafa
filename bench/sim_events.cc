// Event-engine throughput: the pooled engine (src/sim/simulator.h) vs the
// reference heap oracle (tests/oracles/reference_simulator.h),
// machine-readable.
//
// Exercises the engine's distinct cost regimes — a depth-1 self-ticking
// chain, small, loaded and deep steady-state pending sets, schedule+cancel
// churn, and far-future timers that land in higher wheel levels and the
// overflow heap — under both engines, then writes `BENCH_sim_events.json`
// (scenario -> ns/event per engine, plus the wheel:reference speedup) so the
// perf trajectory is tracked across PRs. Each scenario runs kRounds rounds,
// alternating the two engines, and reports each engine's minimum ns/event:
// the shared-machine noise this bench meets only ever adds time, so the
// minimum is the stable estimate the baseline gate compares.
//
// Flags:
//   --quick            ~10x fewer events per scenario (CI smoke mode)
//   --baseline <file>  compare the wheel's ns/event against the checked-in
//                      baseline; exit 1 on a >25% regression
//   --out <file>       JSON output path (default BENCH_sim_events.json)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/time.h"
#include "src/sim/simulator.h"
#include "tests/oracles/reference_simulator.h"

namespace syrup {
namespace {

constexpr int kRounds = 5;

struct ScenarioResult {
  double ns_per_event = 0;
  uint64_t events = 0;
  uint64_t internal_allocs = 0;  // wheel engine's slab/heap/growth count
};

// The pooled engine counts its own allocations; the oracle does not.
template <typename Sim>
uint64_t InternalAllocs(const Sim& sim) {
  if constexpr (std::is_same_v<Sim, Simulator>) {
    return sim.engine_stats().internal_allocs();
  } else {
    return 0;
  }
}

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Depth-1 chain: each dispatch schedules the next event. The minimal
// schedule+dispatch round trip. The callback is a plain 16-byte functor —
// what the swept client code schedules — so the pooled engine stores it
// inline (direct invoke, no destructor) while the reference engine pays its
// mandatory std::function + shared_ptr<bool> wrapping.
template <typename Sim>
struct SelfTick {
  Sim* sim;
  uint64_t* remaining;
  void operator()() const {
    if (--*remaining > 0) {
      sim->ScheduleAfter(100, SelfTick{sim, remaining});
    }
  }
};

template <typename Sim>
ScenarioResult RunSelfTick(uint64_t events) {
  Sim sim;
  uint64_t remaining = events;
  sim.ScheduleAfter(100, SelfTick<Sim>{&sim, &remaining});
  const auto start = std::chrono::steady_clock::now();
  sim.RunToCompletion();
  ScenarioResult r;
  r.events = events;
  r.ns_per_event = ElapsedNs(start) / static_cast<double>(events);
  r.internal_allocs = InternalAllocs(sim);
  return r;
}

// `pending` events in flight, each rescheduling itself at a varied (but
// deterministic) delay of min_delay + [0, delay_spread) ns. The pool and the
// engine's heap/wheel reach their high-water marks during warmup and the
// measured window allocates nothing.
template <typename Sim>
struct SteadyTick {
  Sim* sim;
  uint64_t* remaining;
  uint64_t* lcg;
  uint64_t min_delay;
  uint64_t delay_spread;
  void operator()() const {
    if (*remaining > 0) {
      --*remaining;
      *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
      sim->ScheduleAfter(min_delay + (*lcg >> 33) % delay_spread, *this);
    }
  }
};

template <typename Sim>
ScenarioResult RunSteady(uint64_t events, uint64_t pending, uint64_t min_delay,
                         uint64_t delay_spread) {
  Sim sim;
  uint64_t remaining = events;
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  const SteadyTick<Sim> tick{&sim, &remaining, &lcg, min_delay, delay_spread};
  for (uint64_t i = 0; i < pending; ++i) {
    sim.ScheduleAfter(min_delay + i, tick);
  }
  // Warmup: let the pool/wheel grow to steady state before timing. The
  // 10 us steps keep the overshoot past `warmup` to about 2k events even at
  // 1024 pending with 100 ns-10 us delays; 1 ms steps dispatched ~200k there
  // and left a quick-mode run nothing to measure.
  // (The horizon advances by itself: Now() stays put across a step with no
  // event in it.)
  const uint64_t warmup = events / 10;
  uint64_t dispatched_target = sim.engine_stats().dispatched + warmup;
  Time horizon = sim.Now();
  while (sim.engine_stats().dispatched < dispatched_target &&
         sim.pending_events() > 0) {
    horizon += 10 * kMicrosecond;
    sim.RunUntil(horizon);
  }
  const uint64_t allocs_before = InternalAllocs(sim);
  const uint64_t dispatched_before = sim.engine_stats().dispatched;
  const auto start = std::chrono::steady_clock::now();
  sim.RunToCompletion();
  const double elapsed = ElapsedNs(start);
  ScenarioResult r;
  r.events = sim.engine_stats().dispatched - dispatched_before;
  r.ns_per_event = elapsed / static_cast<double>(r.events > 0 ? r.events : 1);
  r.internal_allocs = InternalAllocs(sim) - allocs_before;
  return r;
}

template <typename Sim>
ScenarioResult RunSteadySmall(uint64_t events) {
  // 16 in flight over 1us-1ms: the shape the paper's configurations run in
  // (perfbench's workloads peak at 14-19 pending), which the pooled engine
  // serves from its heap mode without touching the wheel.
  return RunSteady<Sim>(events, 16, 1'000, 999'000);
}

template <typename Sim>
ScenarioResult RunSteadyState(uint64_t events) {
  // 1k in flight over a 10us spread: a loaded single host.
  return RunSteady<Sim>(events, 1024, 100, 10'000);
}

template <typename Sim>
ScenarioResult RunSteadyDeep(uint64_t events) {
  // 16k in flight over a 1ms spread: rack-scale experiment shape (tens of
  // thousands of packets/timers pending). The reference heap pays O(log n)
  // type-erased moves per operation here; the wheel stays O(1).
  return RunSteady<Sim>(events, 16'384, 100, 1'000'000);
}

// The steady-state workload with three more engines running the same thing
// concurrently on their own threads — the per-shard shape of
// src/sim/sharded.h. Each engine's alloc accounting is per instance
// (EngineStats lives on the Simulator), so the measured engine's
// internal_allocs delta must stay zero even while its neighbors warm up
// and allocate; a nonzero count here means some engine state regressed to
// process-global.
template <typename Sim>
ScenarioResult RunSteadyConcurrent(uint64_t events) {
  constexpr int kNoise = 3;
  std::atomic<bool> stop{false};
  std::vector<std::thread> noise;
  noise.reserve(kNoise);
  for (int i = 0; i < kNoise; ++i) {
    noise.emplace_back([events, &stop]() {
      while (!stop.load(std::memory_order_relaxed)) {
        RunSteady<Sim>(events / 4, 1024, 100, 10'000);
      }
    });
  }
  ScenarioResult r = RunSteady<Sim>(events, 1024, 100, 10'000);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : noise) {
    t.join();
  }
  return r;
}

// Schedule batches of timers and cancel half before they fire: the
// tail-latency-timer pattern (armed per request, cancelled on completion).
template <typename Sim>
ScenarioResult RunScheduleCancel(uint64_t events) {
  constexpr uint64_t kBatch = 256;
  Sim sim;
  std::vector<decltype(sim.ScheduleAfter(0, [] {}))> handles;
  handles.reserve(kBatch);
  uint64_t scheduled = 0;
  volatile uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  while (scheduled < events) {
    handles.clear();
    for (uint64_t i = 0; i < kBatch; ++i) {
      handles.push_back(
          sim.ScheduleAfter(1'000 + i * 10, [&fired]() { fired = fired + 1; }));
    }
    scheduled += kBatch;
    for (uint64_t i = 0; i < kBatch; i += 2) {
      handles[i].Cancel();
    }
    sim.RunToCompletion();
  }
  ScenarioResult r;
  r.events = scheduled;
  r.ns_per_event = ElapsedNs(start) / static_cast<double>(scheduled);
  r.internal_allocs = InternalAllocs(sim);
  return r;
}

// Timers across every wheel level plus the >4.3s overflow heap: delays are
// powers of two from 1us up past the wheel span.
template <typename Sim>
ScenarioResult RunFarTimers(uint64_t events) {
  constexpr int kMinShift = 10;  // 1 us
  constexpr int kMaxShift = 33;  // ~8.6 s: past the 2^32 ns wheel span
  constexpr uint64_t kBatch = 240;
  Sim sim;
  uint64_t scheduled = 0;
  volatile uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  while (scheduled < events) {
    int shift = kMinShift;
    for (uint64_t i = 0; i < kBatch; ++i) {
      sim.ScheduleAfter(uint64_t{1} << shift, [&fired]() { fired = fired + 1; });
      if (++shift > kMaxShift) {
        shift = kMinShift;
      }
    }
    scheduled += kBatch;
    sim.RunToCompletion();
  }
  ScenarioResult r;
  r.events = scheduled;
  r.ns_per_event = ElapsedNs(start) / static_cast<double>(scheduled);
  r.internal_allocs = InternalAllocs(sim);
  return r;
}

struct Scenario {
  const char* name;
  ScenarioResult (*wheel)(uint64_t);
  ScenarioResult (*reference)(uint64_t);
  uint64_t events;  // full-mode event count; --quick divides by 10
};

// Pulls `"<name>": <number>` out of the baseline JSON. Ad-hoc on purpose:
// the baseline file is small, checked in, and written by this binary's own
// formatter, so a full JSON parser would be dead weight.
bool BaselineFor(const std::string& text, const char* name, double* out) {
  const std::string needle = std::string("\"") + name + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  return std::sscanf(text.c_str() + pos + needle.size(), " %lf", out) == 1;
}

int Run(bool quick, const char* out_path, const char* baseline_path) {
  using Ref = ReferenceSimulator;
  const Scenario scenarios[] = {
      {"self_tick", RunSelfTick<Simulator>, RunSelfTick<Ref>, 2'000'000},
      {"steady_small", RunSteadySmall<Simulator>, RunSteadySmall<Ref>,
       2'000'000},
      {"steady_state", RunSteadyState<Simulator>, RunSteadyState<Ref>,
       2'000'000},
      {"steady_deep", RunSteadyDeep<Simulator>, RunSteadyDeep<Ref>,
       2'000'000},
      {"schedule_cancel", RunScheduleCancel<Simulator>,
       RunScheduleCancel<Ref>, 1'000'000},
      {"far_timers", RunFarTimers<Simulator>, RunFarTimers<Ref>, 480'000},
      {"steady_concurrent", RunSteadyConcurrent<Simulator>,
       RunSteadyConcurrent<Ref>, 1'000'000},
  };

  struct Row {
    double wheel_ns;
    double reference_ns;
    uint64_t wheel_allocs;
  };
  std::map<std::string, Row> results;

  std::printf("# sim_events: event engine throughput (%s mode, min of %d "
              "rounds)\n",
              quick ? "quick" : "full", kRounds);
  std::printf("%-16s %12s %12s %9s %13s\n", "scenario", "wheel", "reference",
              "speedup", "wheel_allocs");
  for (const Scenario& s : scenarios) {
    const uint64_t events = quick ? s.events / 10 : s.events;
    ScenarioResult wheel;
    ScenarioResult ref;
    for (int round = 0; round < kRounds; ++round) {
      const ScenarioResult w = s.wheel(events);
      const ScenarioResult r = s.reference(events);
      if (round == 0 || w.ns_per_event < wheel.ns_per_event) {
        wheel = w;
      }
      if (round == 0 || r.ns_per_event < ref.ns_per_event) {
        ref = r;
      }
    }
    results[s.name] = {wheel.ns_per_event, ref.ns_per_event,
                       wheel.internal_allocs};
    std::printf("%-16s %9.1f ns %9.1f ns %8.2fx %13llu\n", s.name,
                wheel.ns_per_event, ref.ns_per_event,
                ref.ns_per_event / wheel.ns_per_event,
                static_cast<unsigned long long>(wheel.internal_allocs));
  }

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"sim_events\",\n"
               "  \"unit\": \"ns_per_event\",\n"
               "  \"mode\": \"%s\",\n  \"scenarios\": {\n",
               quick ? "quick" : "full");
  size_t index = 0;
  for (const auto& [name, row] : results) {
    std::fprintf(out,
                 "    \"%s\": {\"wheel\": %.2f, \"reference\": %.2f, "
                 "\"speedup\": %.3f, \"wheel_internal_allocs\": %llu}%s\n",
                 name.c_str(), row.wheel_ns, row.reference_ns,
                 row.reference_ns / row.wheel_ns,
                 static_cast<unsigned long long>(row.wheel_allocs),
                 ++index == results.size() ? "" : ",");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("# wrote %s\n", out_path);

  if (baseline_path == nullptr) {
    return 0;
  }
  std::FILE* in = std::fopen(baseline_path, "r");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path);
    return 1;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    text.append(buf, n);
  }
  std::fclose(in);

  constexpr double kTolerance = 1.25;  // fail on >25% regression
  int failures = 0;
  for (const auto& [name, row] : results) {
    double baseline_ns;
    if (!BaselineFor(text, name.c_str(), &baseline_ns)) {
      std::fprintf(stderr, "baseline missing scenario %s\n", name.c_str());
      ++failures;
      continue;
    }
    if (row.wheel_ns > baseline_ns * kTolerance) {
      std::fprintf(stderr,
                   "REGRESSION %s: wheel %.1f ns/event vs baseline %.1f "
                   "(limit %.1f)\n",
                   name.c_str(), row.wheel_ns, baseline_ns,
                   baseline_ns * kTolerance);
      ++failures;
    } else {
      std::printf("# baseline ok %s: %.1f ns/event <= %.1f\n", name.c_str(),
                  row.wheel_ns, baseline_ns * kTolerance);
    }
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  bool quick = false;
  const char* out_path = "BENCH_sim_events.json";
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--baseline <file>] [--out <file>]\n",
                   argv[0]);
      return 2;
    }
  }
  return syrup::Run(quick, out_path, baseline_path);
}
