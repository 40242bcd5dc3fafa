// Flow-decision cache: cached vs uncached dispatch cost, machine-readable.
//
// Sweeps flow counts (cache-friendly through cache-thrashing) across the
// packet hooks, driving the stack's installed hook functions directly —
// the same dispatch path the simulator exercises, minus simulated time —
// with a verifier-cacheable bytecode policy deployed through syrupd. Each
// scenario measures ns/packet with the cache enabled (steady state, table
// warmed) and disabled (every packet executes the policy), plus the
// batched entry point (Syrupd::DispatchBatch in bursts of 32 — the shape
// RxBurst produces), and reads the hit and bypass rates from the
// flow_cache.{hits,misses,bypassed} counters. Writes `BENCH_flow_cache.json`
// so the perf trajectory is tracked across PRs.
//
// Gates (exit 1 on violation) so CI catches the cache silently degrading
// into a slower path:
//   - >= 3x improvement at >= 90% hit rate for a map-consulting builtin
//     (least_loaded_f256; the bar from the PR that introduced the cache).
//   - cached dispatch never slower than uncached at any flow count with
//     reuse — including the oversubscribed 8192- and 100k-flow scenarios,
//     which adaptive sizing must absorb rather than thrash on.
//   - at the Fig. 9 regime (xdp_skb_f1m_low_reuse: uniform draws from 1M
//     keys, each recurring ~1.2 times, which no table can serve) the cache
//     must cost at most 15% over uncached dispatch: the bypass gate closes
//     and the packet pays only the key derivation and the reuse sample.
//
// Flags:
//   --quick            ~10x fewer packets per scenario (CI smoke mode)
//   --baseline <file>  compare cached ns/packet against the checked-in
//                      baseline; exit 1 on a >25% regression
//   --out <file>       JSON output path (default BENCH_flow_cache.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/syrup_api.h"
#include "src/core/syrupd.h"
#include "src/net/stack.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

constexpr uint16_t kPort = 9000;

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<Packet> MakeFlows(uint32_t num_flows) {
  std::vector<Packet> flows;
  flows.reserve(num_flows);
  for (uint32_t flow = 0; flow < num_flows; ++flow) {
    Packet pkt;
    pkt.tuple.src_ip = 0x0a000001;
    pkt.tuple.dst_ip = 0x0a0000ff;
    pkt.tuple.src_port = static_cast<uint16_t>(20'000 + (flow & 0x3FF));
    pkt.tuple.dst_port = kPort;
    // MicaHome keys on key_hash: one distinct cache key per flow.
    pkt.SetHeader(ReqType::kGet, 1, flow * 2654435761u, flow, 0);
    flows.push_back(pkt);
  }
  return flows;
}

struct ScenarioResult {
  double cached_ns = 0;
  double uncached_ns = 0;
  double batch_ns = 0;     // DispatchBatch bursts of 32, cache enabled
  double hit_rate = 0;     // of the cached measured window's packets
  double bypass_rate = 0;  // likewise, packets the closed gate bypassed
  int64_t capacity = 0;    // cached table slots at the end
  uint64_t packets = 0;
};

// How a scenario walks its flow set.
enum class Access {
  kRoundRobin,  // every flow in turn
  kSkewed,      // 90% over a 4096-flow hot set, 10% a one-shot cold tail
  kUniform,     // independent uniform draws, 1.2 per flow
};

// One syrupd per run so cache tables, counters, and maps start cold.
struct Harness {
  Harness() : stack(sim, StackConfig{}), syrupd(sim, &stack) {
    app = syrupd.RegisterApp("bench", 1000, kPort).value();
  }

  uint64_t CacheCounter(Hook hook, const char* name) {
    return syrupd.StatsSnapshot().CounterValue(
        "syrupd", HookName(hook), std::string("flow_cache.") + name);
  }

  Simulator sim;
  HostStack stack;
  Syrupd syrupd;
  AppId app = 0;
};

SteerHook& HookFn(HostStack& stack, Hook hook) {
  switch (hook) {
    case Hook::kXdpDrv:
      return stack.hooks().xdp_drv;
    case Hook::kXdpSkb:
      return stack.hooks().xdp_skb;
    case Hook::kCpuRedirect:
      return stack.hooks().cpu_redirect;
    default:
      return stack.hooks().socket_select;
  }
}

// Measures ns/packet of the cached and the uncached hook over the same
// `iters` accesses, alternating between them every kSlice packets so an
// interference burst inflates both sides of the ratio alike.
struct PairNs {
  double cached = 0;
  double uncached = 0;
};

PairNs MeasurePairNs(SteerHook& cached, SteerHook& uncached,
                     const std::vector<PacketView>& views, uint64_t iters) {
  constexpr uint64_t kSlice = uint64_t{1} << 16;
  SteerHook* const fns[2] = {&cached, &uncached};
  double elapsed[2] = {0, 0};
  uint64_t sink = 0;
  for (uint64_t begin = 0; begin < iters; begin += kSlice) {
    const uint64_t end = std::min(iters, begin + kSlice);
    for (int side = 0; side < 2; ++side) {
      const auto start = std::chrono::steady_clock::now();
      for (uint64_t i = begin; i < end; ++i) {
        sink += (*fns[side])(views[i % views.size()]);
      }
      elapsed[side] += ElapsedNs(start);
    }
  }
  // Keep the decisions observable so the loops cannot be elided.
  if (sink == 0xFFFFFFFFFFFFFFFFull) {
    std::printf("# sink %llu\n", static_cast<unsigned long long>(sink));
  }
  return {elapsed[0] / static_cast<double>(iters),
          elapsed[1] / static_cast<double>(iters)};
}

// Measures ns/packet for the batched entry point: bursts of up to 32
// packets through Syrupd::DispatchBatch — key computation and slot
// prefetch hoisted across the burst, the shape HostStack::RxBurst feeds.
double MeasureBatchNs(Syrupd& syrupd, Hook hook,
                      const std::vector<PacketView>& views, uint64_t iters) {
  constexpr size_t kBurst = 32;
  Decision out[kBurst];
  uint64_t sink = 0;
  uint64_t done = 0;
  size_t pos = 0;
  const auto start = std::chrono::steady_clock::now();
  while (done < iters) {
    const size_t n = std::min({kBurst, views.size() - pos,
                               static_cast<size_t>(iters - done)});
    syrupd.DispatchBatch(hook, std::span<const PacketView>(&views[pos], n),
                         std::span<Decision>(out, n));
    sink += out[n - 1];
    done += n;
    pos += n;
    if (pos == views.size()) {
      pos = 0;
    }
  }
  const double elapsed = ElapsedNs(start);
  if (sink == 0xFFFFFFFFFFFFFFFFull) {
    std::printf("# sink %llu\n", static_cast<unsigned long long>(sink));
  }
  return elapsed / static_cast<double>(iters);
}

// Which verified policy a scenario deploys. All three are cacheable; they
// differ in what the cache can save:
//   kMicaHome        pure packet arithmetic (~tens of ns) — cheap enough
//                    that re-execution beats a DRAM-resident table. It
//                    covers the small/medium flow counts and the Fig. 9
//                    low-reuse regime, where the gate must bypass.
//   kLeastLoaded     map-consulting but reads no packet bytes: its cache
//                    key collapses to (port, len), one entry total. The
//                    headline 3x gate.
//   kHashedTwoChoice flow-hash home + deterministic two-choice over the
//                    load map: packet-keyed (per-flow entries) AND
//                    map-consulting (real recompute cost). The
//                    representative shape for memoization at scale, so the
//                    oversubscribed scenarios (f8192, f100k) gate on it.
enum class BenchPolicy { kMicaHome, kLeastLoaded, kHashedTwoChoice };

// Deterministic d=2 choices keyed by the packet's flow hash: look up the
// flow's home executor and its neighbor in the load map, steer to the less
// loaded. No randomness (get_prandom_u32 would make it uncacheable) — the
// flow hash supplies the spread, the map supplies the load signal.
std::string HashedTwoChoicePolicyAsm() {
  return R"(
.name hashed_two_choice
.ctx packet
.extern_map load /syrup/bench/load
  mov r3, r1
  add r3, 24
  jgt r3, r2, pass
  ldxw r6, [r1+20]
  mod r6, 6            ; home = flow_hash % 6
  mov r7, r6
  add r7, 1
  mod r7, 6            ; neighbor
  stxw [r10-4], r6
  ldmapfd r1, load
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jeq r0, 0, pass
  ldxdw r8, [r0+0]     ; load[home]
  stxw [r10-4], r7
  ldmapfd r1, load
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jeq r0, 0, pass
  ldxdw r9, [r0+0]     ; load[neighbor]
  jlt r9, r8, pick_b
  mov r0, r6
  exit
pick_b:
  mov r0, r7
  exit
pass:
  mov r0, PASS
  exit
)";
}

// Pre-pins the extern load map the map-consulting policies resolve at
// deploy, seeded so the decision is stable. Returns the handle to keep it
// alive.
MapHandle PinLoadMap(Harness& h) {
  SyrupClient client(h.syrupd, h.app);
  MapSpec spec;
  spec.max_entries = 6;
  spec.name = "load";
  MapHandle load = client.MapCreate(spec, "/syrup/bench/load").value();
  for (uint32_t i = 0; i < 6; ++i) {
    if (!load.Update(i, 10 + i).ok()) {
      std::exit(1);
    }
  }
  return load;
}

ScenarioResult RunScenario(Hook hook, const std::string& policy_asm,
                           bool needs_load_map, uint32_t num_flows,
                           Access order, uint64_t iters) {
  const std::vector<Packet> flows = MakeFlows(num_flows);
  std::vector<PacketView> views;
  views.reserve(flows.size());
  for (const Packet& pkt : flows) {
    views.push_back(PacketView::Of(pkt));
  }

  // Access order. Round-robin scenarios cycle the flow set. Skewed
  // scenarios model scale traffic with locality: 90% of packets from a
  // 4096-flow hot set, 10% a one-shot cold tail that sweeps the rest of
  // the universe (each tail flow recurs only once per ~full sweep — far
  // beyond any realistic residency horizon). Uniform scenarios model the
  // opposite, Fig. 9's MICA keyspace: independent uniform draws, 1.2 per
  // flow, so a flow recurs ~1.2 times at a reuse distance around the
  // universe size. No table holds that, and the uncached policy wins it by
  // construction; what it measures is what the cache costs when it must
  // get out of the way.
  std::vector<PacketView> access;
  if (order == Access::kUniform) {
    Rng rng(0x5eedull);
    const size_t draws = size_t{num_flows} * 6 / 5;
    access.reserve(draws);
    for (size_t i = 0; i < draws; ++i) {
      access.push_back(views[rng.NextBounded(num_flows)]);
    }
  } else if (order == Access::kSkewed) {
    Rng rng(0x5eedull);
    const uint32_t hot = std::min<uint32_t>(4096, num_flows);
    uint32_t cold_cursor = 0;
    access.reserve(size_t{1} << 17);
    for (size_t i = 0; i < (size_t{1} << 17); ++i) {
      uint32_t flow;
      if (num_flows <= hot || rng.NextBounded(10) != 0) {
        flow = static_cast<uint32_t>(rng.NextBounded(hot));
      } else {
        flow = hot + cold_cursor;
        cold_cursor = (cold_cursor + 1) % (num_flows - hot);
      }
      access.push_back(views[flow]);
    }
  } else {
    access = views;
  }

  // Noise control on a shared machine: the gates are *ratios*, so cached
  // and uncached dispatch are measured in interleaved slices and the
  // batched variant in interleaved rounds (an interference burst then
  // inflates all of them alike instead of corrupting one side of the
  // ratio), and each variant keeps the minimum over kReps rounds — the
  // standard estimator for "the code's cost without interference". Five
  // rounds, because the low-reuse gate bounds a ratio near 1.
  constexpr int kReps = 5;

  // A low-reuse window is one pass over its draws, so each flow recurs
  // ~1.2 times in it whatever the mode.
  if (order == Access::kUniform) {
    iters = access.size();
  }
  ScenarioResult r;
  r.packets = iters;
  Harness cached_h;
  Harness uncached_h;
  FlowCacheConfig uncached_config;
  uncached_config.enabled = false;
  uncached_h.syrupd.set_flow_cache_config(uncached_config);
  MapHandle cached_load;
  MapHandle uncached_load;
  if (needs_load_map) {
    cached_load = PinLoadMap(cached_h);
    uncached_load = PinLoadMap(uncached_h);
  }
  if (!cached_h.syrupd.DeployPolicyFile(cached_h.app, policy_asm, hook).ok() ||
      !uncached_h.syrupd.DeployPolicyFile(uncached_h.app, policy_asm, hook)
           .ok()) {
    std::fprintf(stderr, "deploy failed for %s\n",
                 std::string(HookName(hook)).c_str());
    std::exit(1);
  }
  SteerHook& cached_fn = HookFn(cached_h.stack, hook);
  SteerHook& uncached_fn = HookFn(uncached_h.stack, hook);
  // Warm the table until adaptive sizing has settled: at least 16k
  // accesses, four windows of the default 4096-slot table (a working set's
  // first window is all cold accesses and may close the gate for a window
  // or two), and four passes for large flow sets with reuse, which grow the
  // table in steps. One pass is enough for the low-reuse stream, whose gate
  // closes within its first window. The uncached harness gets the
  // identical warmup for fairness.
  const size_t warm_passes =
      num_flows >= 8192 && order != Access::kUniform ? 4 : 1;
  const size_t warm_accesses =
      std::max(size_t{1} << 14, warm_passes * access.size());
  for (size_t i = 0; i < warm_accesses; ++i) {
    (void)cached_fn(access[i % access.size()]);
    (void)uncached_fn(access[i % access.size()]);
  }
  const uint64_t hits0 = cached_h.CacheCounter(hook, "hits");
  const uint64_t misses0 = cached_h.CacheCounter(hook, "misses");
  const uint64_t bypassed0 = cached_h.CacheCounter(hook, "bypassed");
  for (int rep = 0; rep < kReps; ++rep) {
    const PairNs pair = MeasurePairNs(cached_fn, uncached_fn, access, iters);
    const double batch_ns = MeasureBatchNs(cached_h.syrupd, hook, access,
                                           iters);
    r.cached_ns = rep == 0 ? pair.cached : std::min(r.cached_ns, pair.cached);
    r.uncached_ns =
        rep == 0 ? pair.uncached : std::min(r.uncached_ns, pair.uncached);
    r.batch_ns = rep == 0 ? batch_ns : std::min(r.batch_ns, batch_ns);
  }
  const uint64_t hits = cached_h.CacheCounter(hook, "hits") - hits0;
  const uint64_t misses = cached_h.CacheCounter(hook, "misses") - misses0;
  const uint64_t bypassed =
      cached_h.CacheCounter(hook, "bypassed") - bypassed0;
  const auto total =
      static_cast<double>(std::max<uint64_t>(hits + misses + bypassed, 1));
  r.hit_rate = static_cast<double>(hits) / total;
  r.bypass_rate = static_cast<double>(bypassed) / total;
  r.capacity = cached_h.syrupd.StatsSnapshot().GaugeValue(
      "syrupd", HookName(hook), "flow_cache.capacity");
  return r;
}

// --- Sharded per-lane tables at the 1M-flow scale ---------------------------
//
// The sharded simulation engine gives each shard its own Syrupd dispatch
// lane (Syrupd::ConfigureSharding): a private cache table and counter
// cells per lane. This scenario drives a 1,000,000-flow universe
// partitioned across 4 lanes — each lane dispatches only its quarter-
// million-flow partition, under the same skewed 90/10 access the f100k
// scenario uses — through the shard-qualified DispatchBatch, and reports
// aggregate ns/packet plus the hit rate folded across lanes by
// StatsSnapshot. Deliberately ungated: the acceptance bar is that the
// 1M-flow scale *completes* with per-lane adaptive tables (no thrash, no
// blowup), not a machine-dependent ratio.
struct ShardedScaleResult {
  double ns_per_packet = 0;
  double hit_rate = 0;
  uint64_t packets = 0;
};

ShardedScaleResult RunShardedMillionFlows(uint64_t iters) {
  constexpr int kShards = 4;
  constexpr uint32_t kFlows = 1'000'000;
  constexpr uint32_t kPerShard = kFlows / kShards;
  constexpr Hook kHook = Hook::kSocketSelect;
  const std::vector<Packet> flows = MakeFlows(kFlows);

  Harness h;
  MapHandle load = PinLoadMap(h);
  if (!h.syrupd.DeployPolicyFile(h.app, HashedTwoChoicePolicyAsm(), kHook)
           .ok()) {
    std::fprintf(stderr, "deploy failed for sharded_f1m\n");
    std::exit(1);
  }
  h.syrupd.ConfigureSharding(kShards);

  // Per-lane access sequence: 90% over the partition's 4096-flow hot set,
  // 10% a one-shot cold tail sweeping the rest of the quarter-million.
  std::vector<std::vector<PacketView>> access(kShards);
  for (int s = 0; s < kShards; ++s) {
    Rng rng(0x5eedull + static_cast<uint64_t>(s));
    const uint32_t base = static_cast<uint32_t>(s) * kPerShard;
    constexpr uint32_t kHot = 4096;
    uint32_t cold_cursor = 0;
    access[s].reserve(size_t{1} << 17);
    for (size_t i = 0; i < (size_t{1} << 17); ++i) {
      uint32_t flow;
      if (rng.NextBounded(10) != 0) {
        flow = base + static_cast<uint32_t>(rng.NextBounded(kHot));
      } else {
        flow = base + kHot + cold_cursor;
        cold_cursor = (cold_cursor + 1) % (kPerShard - kHot);
      }
      access[s].push_back(PacketView::Of(flows[flow]));
    }
  }

  // Warm every lane so adaptive sizing observes its partition's reuse
  // before the measured window.
  constexpr size_t kBurst = 32;
  Decision out[kBurst];
  for (int s = 0; s < kShards; ++s) {
    for (size_t pos = 0; pos < access[s].size(); pos += kBurst) {
      const size_t n = std::min(kBurst, access[s].size() - pos);
      h.syrupd.DispatchBatch(kHook,
                             std::span<const PacketView>(&access[s][pos], n),
                             std::span<Decision>(out, n), s);
    }
  }

  const uint64_t hits0 = h.CacheCounter(kHook, "hits");
  const uint64_t misses0 = h.CacheCounter(kHook, "misses");
  uint64_t sink = 0;
  uint64_t done = 0;
  size_t pos[kShards] = {};
  const auto start = std::chrono::steady_clock::now();
  // Interleave lanes burst by burst so no lane's table goes cold.
  while (done < iters) {
    for (int s = 0; s < kShards && done < iters; ++s) {
      const size_t n = std::min({kBurst, access[s].size() - pos[s],
                                 static_cast<size_t>(iters - done)});
      h.syrupd.DispatchBatch(
          kHook, std::span<const PacketView>(&access[s][pos[s]], n),
          std::span<Decision>(out, n), s);
      sink += out[n - 1];
      done += n;
      pos[s] += n;
      if (pos[s] == access[s].size()) {
        pos[s] = 0;
      }
    }
  }
  const double elapsed = ElapsedNs(start);
  if (sink == 0xFFFFFFFFFFFFFFFFull) {
    std::printf("# sink %llu\n", static_cast<unsigned long long>(sink));
  }
  const uint64_t hits = h.CacheCounter(kHook, "hits") - hits0;
  const uint64_t misses = h.CacheCounter(kHook, "misses") - misses0;
  ShardedScaleResult r;
  r.packets = done;
  r.ns_per_packet = elapsed / static_cast<double>(done);
  r.hit_rate = static_cast<double>(hits) /
               static_cast<double>(hits + misses > 0 ? hits + misses : 1);
  return r;
}

struct Scenario {
  const char* name;
  Hook hook;
  BenchPolicy policy;
  uint32_t num_flows;
  Access order = Access::kRoundRobin;
};

// The low-reuse scenario's gate: the cache's cost over uncached dispatch
// when it has to bypass (key derivation + reuse sample per packet).
constexpr double kMaxBypassOverhead = 1.15;

bool BaselineFor(const std::string& text, const char* name, double* out) {
  const std::string needle = std::string("\"") + name + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  return std::sscanf(text.c_str() + pos + needle.size(), " %lf", out) == 1;
}

int Run(bool quick, const char* out_path, const char* baseline_path) {
  // Flow counts pick the cache's regimes: 16 and 256 sit comfortably in
  // the default 4096-slot table (~100% steady-state hit rate) and 1536
  // loads it, all on the pure-arithmetic MicaHome policy. The scale
  // scenarios (8192 and a 100k-flow universe under skewed 90/10 access)
  // run the hashed_two_choice policy instead: per-flow keys AND a real
  // recompute cost (two map lookups), the workload memoization exists
  // for — a policy cheaper than a DRAM line can't lose by being
  // re-executed, so gating MicaHome at 100k flows would only measure
  // memory bandwidth. Adaptive sizing must grow the table to the working
  // set during warmup and the admission sketch must keep the hot set
  // resident against the cold tail. The 1M-key uniform scenario is the
  // Fig. 9 regime (MicaHome at XDP_SKB), where the gate must bypass.
  const Scenario scenarios[] = {
      {"socket_select_f16", Hook::kSocketSelect, BenchPolicy::kMicaHome, 16},
      {"socket_select_f256", Hook::kSocketSelect, BenchPolicy::kMicaHome, 256},
      {"socket_select_f1536", Hook::kSocketSelect, BenchPolicy::kMicaHome,
       1536},
      {"socket_select_f8192", Hook::kSocketSelect,
       BenchPolicy::kHashedTwoChoice, 8192},
      {"socket_select_f100k", Hook::kSocketSelect,
       BenchPolicy::kHashedTwoChoice, 100'000, Access::kSkewed},
      {"xdp_drv_f256", Hook::kXdpDrv, BenchPolicy::kMicaHome, 256},
      {"cpu_redirect_f256", Hook::kCpuRedirect, BenchPolicy::kMicaHome, 256},
      {"least_loaded_f256", Hook::kSocketSelect, BenchPolicy::kLeastLoaded,
       256},
      {"xdp_skb_f1m_low_reuse", Hook::kXdpSkb, BenchPolicy::kMicaHome,
       1'000'000, Access::kUniform},
  };
  const uint64_t iters = quick ? 400'000 : 4'000'000;

  std::map<std::string, ScenarioResult> results;
  std::printf("# flow_cache: cached vs uncached dispatch (%s mode)\n",
              quick ? "quick" : "full");
  std::printf("%-22s %11s %11s %11s %9s %9s %9s %8s\n", "scenario",
              "cached", "uncached", "batch", "speedup", "hit_rate", "bypass",
              "slots");
  for (const Scenario& s : scenarios) {
    const std::string policy_asm =
        s.policy == BenchPolicy::kLeastLoaded
            ? LeastLoadedPolicyAsm(6, "/syrup/bench/load")
            : (s.policy == BenchPolicy::kHashedTwoChoice
                   ? HashedTwoChoicePolicyAsm()
                   : MicaHomePolicyAsm(6));
    const ScenarioResult r =
        RunScenario(s.hook, policy_asm, s.policy != BenchPolicy::kMicaHome,
                    s.num_flows, s.order, iters);
    results[s.name] = r;
    std::printf("%-22s %8.1f ns %8.1f ns %8.1f ns %8.2fx %8.1f%% %8.1f%% "
                "%8lld\n",
                s.name, r.cached_ns, r.uncached_ns, r.batch_ns,
                r.uncached_ns / r.cached_ns, r.hit_rate * 100.0,
                r.bypass_rate * 100.0, static_cast<long long>(r.capacity));
  }

  const ShardedScaleResult sharded = RunShardedMillionFlows(iters);
  std::printf("%-22s %8.1f ns %11s %11s %9s %8.1f%%  (1M flows, 4 lanes)\n",
              "sharded_f1m", sharded.ns_per_packet, "-", "-", "-",
              sharded.hit_rate * 100.0);

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"flow_cache\",\n"
               "  \"unit\": \"ns_per_packet\",\n"
               "  \"mode\": \"%s\",\n  \"scenarios\": {\n",
               quick ? "quick" : "full");
  size_t index = 0;
  for (const auto& [name, r] : results) {
    std::fprintf(out,
                 "    \"%s\": {\"cached\": %.2f, \"uncached\": %.2f, "
                 "\"batch\": %.2f, \"speedup\": %.3f, "
                 "\"batch_speedup\": %.3f, \"hit_rate\": %.4f, "
                 "\"bypass_rate\": %.4f, \"capacity\": %lld}%s\n",
                 name.c_str(), r.cached_ns, r.uncached_ns, r.batch_ns,
                 r.uncached_ns / r.cached_ns,
                 r.uncached_ns / r.batch_ns, r.hit_rate, r.bypass_rate,
                 static_cast<long long>(r.capacity),
                 ++index == results.size() ? "" : ",");
  }
  std::fprintf(out,
               "  },\n  \"sharded_f1m\": {\"ns_per_packet\": %.2f, "
               "\"hit_rate\": %.4f, \"packets\": %llu, \"shards\": 4, "
               "\"flows\": 1000000}\n}\n",
               sharded.ns_per_packet, sharded.hit_rate,
               static_cast<unsigned long long>(sharded.packets));
  std::fclose(out);
  std::printf("# wrote %s\n", out_path);

  int failures = 0;

  // Acceptance bar: at >= 90% hit rate a cacheable builtin must dispatch
  // >= 3x faster than uncached execution. least_loaded is the gate: map-
  // consulting policies are what memoization is for (MicaHome's straight-
  // line arithmetic is nearly as cheap as the cache probe itself; its
  // speedup is reported above but not gated).
  const ScenarioResult& gate = results["least_loaded_f256"];
  if (gate.hit_rate < 0.90) {
    std::fprintf(stderr, "GATE: hit rate %.1f%% < 90%% at 256 flows\n",
                 gate.hit_rate * 100.0);
    ++failures;
  } else if (gate.uncached_ns < gate.cached_ns * 3.0) {
    std::fprintf(stderr,
                 "GATE: cached %.1f ns vs uncached %.1f ns — speedup "
                 "%.2fx < 3x at %.1f%% hit rate\n",
                 gate.cached_ns, gate.uncached_ns,
                 gate.uncached_ns / gate.cached_ns, gate.hit_rate * 100.0);
    ++failures;
  } else {
    std::printf("# gate ok: %.2fx speedup at %.1f%% hit rate\n",
                gate.uncached_ns / gate.cached_ns, gate.hit_rate * 100.0);
  }

  // No-regression gate: with adaptive sizing the cache must never lose to
  // uncached dispatch at any flow count with reuse — the oversubscribed
  // scenarios (f8192, f100k) are exactly where the fixed-size table used
  // to thrash. The low-reuse scenario has its own bypass-overhead gate.
  for (const Scenario& s : scenarios) {
    const ScenarioResult& r = results[s.name];
    const double speedup = r.uncached_ns / r.cached_ns;
    if (s.order == Access::kUniform) {
      if (r.cached_ns > r.uncached_ns * kMaxBypassOverhead) {
        std::fprintf(stderr,
                     "GATE: %s bypass overhead — cached %.1f ns vs uncached "
                     "%.1f ns (%.2fx > %.2fx, bypass rate %.1f%%)\n",
                     s.name, r.cached_ns, r.uncached_ns,
                     r.cached_ns / r.uncached_ns, kMaxBypassOverhead,
                     r.bypass_rate * 100.0);
        ++failures;
      } else {
        std::printf("# gate ok: %s cached/uncached %.2fx <= %.2fx\n",
                    s.name, r.cached_ns / r.uncached_ns, kMaxBypassOverhead);
      }
    } else if (speedup < 1.0) {
      std::fprintf(stderr,
                   "GATE: %s regresses under the cache — cached %.1f ns vs "
                   "uncached %.1f ns (%.2fx, hit rate %.1f%%)\n",
                   s.name, r.cached_ns, r.uncached_ns, speedup,
                   r.hit_rate * 100.0);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("# gate ok: cached >= uncached at every flow count with "
                "reuse\n");
  }

  if (baseline_path == nullptr) {
    return failures > 0 ? 1 : 0;
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
  for (const auto& [name, r] : results) {
    double baseline_ns;
    if (!BaselineFor(text, name.c_str(), &baseline_ns)) {
      std::fprintf(stderr, "baseline missing scenario %s\n", name.c_str());
      ++failures;
      continue;
    }
    if (r.cached_ns > baseline_ns * kTolerance) {
      std::fprintf(stderr,
                   "REGRESSION %s: cached %.1f ns/packet vs baseline %.1f "
                   "(limit %.1f)\n",
                   name.c_str(), r.cached_ns, baseline_ns,
                   baseline_ns * kTolerance);
      ++failures;
    } else {
      std::printf("# baseline ok %s: %.1f ns/packet <= %.1f\n", name.c_str(),
                  r.cached_ns, baseline_ns * kTolerance);
    }
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  bool quick = false;
  const char* out_path = "BENCH_flow_cache.json";
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
