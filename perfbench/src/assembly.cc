#include "perfbench/src/assembly.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/apps/loadgen.h"
#include "src/apps/mica_server.h"
#include "src/apps/rocksdb_server.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/core/syrup_api.h"
#include "src/core/syrupd.h"
#include "src/policies/builtin.h"
#include "src/sched/pinned_scheduler.h"

namespace perfbench {
namespace {

using syrup::Duration;
using syrup::Time;

// The ports and uid src/apps/experiments.cc registers its apps with.
constexpr uint16_t kRocksDbPort = 9000;
constexpr uint16_t kMicaPort = 9100;
constexpr syrup::Uid kAppUid = 1000;
// Long enough for the drain-period backlog of every workload to clear.
constexpr Duration kSettle = 2 * syrup::kSecond;

double ToUs(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

// Forwards the Machine's scheduler callbacks to the real scheduler inside
// a sched.callback span.
class TracingScheduler final : public syrup::Scheduler {
 public:
  TracingScheduler(syrup::Scheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  TracingScheduler(const TracingScheduler&) = delete;
  TracingScheduler& operator=(const TracingScheduler&) = delete;

  void OnThreadRunnable(syrup::Thread* thread) override {
    ScopedSpan span(tracer_, SpanKind::kSchedCallback);
    inner_.OnThreadRunnable(thread);
  }
  void OnThreadBlocked(syrup::Thread* thread, int core,
                       Duration ran) override {
    ScopedSpan span(tracer_, SpanKind::kSchedCallback);
    inner_.OnThreadBlocked(thread, core, ran);
  }
  void OnSliceExpired(syrup::Thread* thread, int core,
                      Duration ran) override {
    ScopedSpan span(tracer_, SpanKind::kSchedCallback);
    inner_.OnSliceExpired(thread, core, ran);
  }
  void OnCoreIdle(int core) override {
    ScopedSpan span(tracer_, SpanKind::kSchedCallback);
    inner_.OnCoreIdle(core);
  }

 private:
  syrup::Scheduler& inner_;
  Tracer& tracer_;
};

// One host of either application. Members are declared in construction
// order so destruction unwinds deployments before the daemon.
struct Host {
  std::unique_ptr<syrup::HostStack> stack;
  std::unique_ptr<syrup::Syrupd> syrupd;
  std::unique_ptr<syrup::Machine> machine;
  std::unique_ptr<syrup::Scheduler> scheduler;  // pinned; ghOSt's is syrupd's
  std::unique_ptr<TracingScheduler> tracing_scheduler;
  std::shared_ptr<syrup::Map> thread_type_map;
  std::shared_ptr<syrup::Map> scan_map;
  std::unique_ptr<syrup::MicaServer> mica;
  std::vector<syrup::PolicyHandle> deployments;
  std::unique_ptr<syrup::RocksDbServer> rocksdb;
  std::unique_ptr<syrup::LoadGenerator> gen;

  uint64_t completed() const {
    return mica != nullptr ? mica->completed() : rocksdb->completed();
  }
  void ResetServerStats() {
    if (mica != nullptr) {
      mica->ResetStats();
    } else {
      rocksdb->ResetStats();
    }
  }
};

syrup::Syrupd& BuildDaemon(syrup::Simulator& sim, Host& host,
                           const syrup::StackConfig& stack_config,
                           uint64_t seed, syrup::bpf::ExecMode exec_mode,
                           syrup::FlowCacheConfig cache_config,
                           bool flow_cache) {
  host.stack = std::make_unique<syrup::HostStack>(sim, stack_config);
  host.syrupd = std::make_unique<syrup::Syrupd>(sim, host.stack.get(), seed);
  syrup::Syrupd& syrupd = *host.syrupd;
  syrupd.set_exec_mode(exec_mode);
  // The deprecated bool still gates the cache, as in the entry points.
  cache_config.enabled = cache_config.enabled && flow_cache;
  syrupd.set_flow_cache_config(cache_config);
  return syrupd;
}

// Puts a TracingScheduler between the machine and `inner`.
void InterposeScheduler(Host& host, syrup::Scheduler& inner,
                        Tracer* tracer) {
  if (tracer == nullptr) {
    return;
  }
  host.tracing_scheduler = std::make_unique<TracingScheduler>(inner, *tracer);
  host.machine->SetScheduler(host.tracing_scheduler.get());
}

std::unique_ptr<syrup::LoadGenerator> MakeGenerator(
    syrup::Simulator& sim, Host& host, syrup::LoadGenConfig gen_config,
    Tracer* tracer) {
  if (tracer == nullptr) {
    return std::make_unique<syrup::LoadGenerator>(sim, *host.stack,
                                                  std::move(gen_config));
  }
  syrup::HostStack* stack = host.stack.get();
  return std::make_unique<syrup::LoadGenerator>(
      sim,
      [stack, tracer](syrup::Packet pkt) {
        ScopedSpan span(*tracer, SpanKind::kNetRx);
        stack->Rx(std::move(pkt));
      },
      std::move(gen_config));
}

// BuildRocksDbHost of src/apps/experiments.cc, bytecode path, unsharded.
void BuildRocksDb(syrup::Simulator& sim,
                  const syrup::RocksDbExperimentConfig& config,
                  Tracer* tracer, Host& host) {
  SYRUP_CHECK(config.use_bytecode && config.sharding.sim.shards == 0 &&
              !config.late_binding && !config.cpu_redirect_spray)
      << "the assembly covers the benchmark's RocksDB configurations only";
  syrup::StackConfig stack_config;
  stack_config.num_nic_queues = config.num_cores;
  stack_config.protocol_cold_penalty = config.protocol_cold_penalty;
  syrup::Syrupd& syrupd =
      BuildDaemon(sim, host, stack_config, config.seed, config.exec_mode,
                  config.flow_cache_config, config.flow_cache);
  const syrup::AppId app =
      syrupd.RegisterApp("rocksdb", kAppUid, kRocksDbPort).value();

  host.machine = std::make_unique<syrup::Machine>(sim, config.num_cores);
  syrup::Machine& machine = *host.machine;
  switch (config.thread_sched) {
    case syrup::ThreadSchedKind::kPinned:
      host.scheduler = std::make_unique<syrup::PinnedScheduler>(machine);
      machine.SetScheduler(host.scheduler.get());
      InterposeScheduler(host, *host.scheduler, tracer);
      break;
    case syrup::ThreadSchedKind::kGhostGetPriority: {
      syrup::MapSpec spec;
      spec.type = syrup::MapType::kHash;
      spec.max_entries = 256;
      spec.name = "thread_type_map";
      host.thread_type_map = syrup::CreateMap(spec).value();
      SYRUP_CHECK_OK(syrupd.registry().Pin("/syrup/rocksdb/thread_type_map",
                                           host.thread_type_map, kAppUid));
      syrup::GhostConfig ghost_config;
      ghost_config.num_managed_cores = config.num_cores - 1;
      SYRUP_CHECK_OK(syrupd
                         .DeployThreadPolicyFile(
                             app,
                             syrup::GetPriorityThreadPolicyAsm(
                                 "/syrup/rocksdb/thread_type_map"),
                             machine, ghost_config)
                         .status());
      // syrupd owns the agent and publishes it read-only; the object itself
      // is mutable, and forwarding calls to it is what the machine does.
      InterposeScheduler(
          host,
          *const_cast<syrup::GhostScheduler*>(syrupd.ghost_scheduler()),
          tracer);
      break;
    }
    case syrup::ThreadSchedKind::kCfs:
      SYRUP_CHECK(false) << "CFS is not a benchmark configuration";
  }

  const uint32_t n = static_cast<uint32_t>(config.num_threads);
  syrup::SyrupClient client(syrupd, app);
  switch (config.socket_policy) {
    case syrup::SocketPolicyKind::kScanAvoid:
      host.deployments.push_back(
          client
              .DeployPolicy(syrup::ScanAvoidPolicyAsm(n),
                            syrup::Hook::kSocketSelect)
              .value());
      host.scan_map =
          syrupd.registry().Open("/syrup/rocksdb/scan_map", kAppUid).value();
      break;
    case syrup::SocketPolicyKind::kSita:
      host.deployments.push_back(
          client
              .DeployPolicy(syrup::SitaPolicyAsm(n),
                            syrup::Hook::kSocketSelect)
              .value());
      break;
    case syrup::SocketPolicyKind::kVanilla:
    case syrup::SocketPolicyKind::kRoundRobin:
      SYRUP_CHECK(false) << "not a benchmark configuration";
  }

  syrup::RocksDbConfig server_config;
  server_config.num_threads = config.num_threads;
  server_config.port = kRocksDbPort;
  server_config.seed = config.seed * 31 + 5;
  server_config.scan_map = host.scan_map;
  server_config.thread_type_map = host.thread_type_map;
  host.rocksdb = std::make_unique<syrup::RocksDbServer>(
      sim, *host.stack, machine, server_config);

  syrup::LoadGenConfig gen_config;
  gen_config.rate_rps = config.load_rps;
  gen_config.dst_port = kRocksDbPort;
  gen_config.num_flows = config.num_flows;
  gen_config.flow_skew = config.flow_skew;
  gen_config.user_id = 1;
  gen_config.mix = {{syrup::ReqType::kGet, config.get_fraction},
                    {syrup::ReqType::kScan, 1.0 - config.get_fraction}};
  if (config.get_fraction >= 1.0) {
    gen_config.mix = {{syrup::ReqType::kGet, 1.0}};
  }
  gen_config.seed = config.seed * 77 + 1;
  host.gen = MakeGenerator(sim, host, std::move(gen_config), tracer);
  host.gen->Start(config.warmup + config.measure);
}

// BuildMicaHost of src/apps/experiments.cc, bytecode path, unsharded.
void BuildMica(syrup::Simulator& sim,
               const syrup::MicaExperimentConfig& config, Tracer* tracer,
               Host& host) {
  SYRUP_CHECK(config.use_bytecode && config.sharding.sim.shards == 0 &&
              config.variant == syrup::MicaVariant::kSyrupSw)
      << "the assembly covers the benchmark's MICA configuration only";
  syrup::StackConfig stack_config;
  stack_config.num_nic_queues = config.num_threads;
  stack_config.driver_cost = 400;
  stack_config.skb_alloc_cost = 300;
  stack_config.xdp_cost = 200;
  stack_config.protocol_cost = 900;
  stack_config.afxdp_deliver_cost = 200;
  stack_config.afxdp_copy_cost = 300;
  stack_config.socket_queue_depth = 256;
  syrup::Syrupd& syrupd =
      BuildDaemon(sim, host, stack_config, config.seed, config.exec_mode,
                  config.flow_cache_config, config.flow_cache);
  const syrup::AppId app =
      syrupd.RegisterApp("mica", kAppUid, kMicaPort).value();

  host.machine = std::make_unique<syrup::Machine>(sim, config.num_threads);
  host.scheduler = std::make_unique<syrup::PinnedScheduler>(*host.machine);
  host.machine->SetScheduler(host.scheduler.get());
  InterposeScheduler(host, *host.scheduler, tracer);

  syrup::MicaConfig server_config;
  server_config.num_threads = config.num_threads;
  server_config.port = kMicaPort;
  server_config.seed = config.seed * 13 + 3;
  host.mica = std::make_unique<syrup::MicaServer>(
      sim, *host.stack, *host.machine, server_config, config.variant);

  const uint32_t n = static_cast<uint32_t>(config.num_threads);
  syrup::SyrupClient client(syrupd, app);
  host.deployments.push_back(
      client.DeployPolicy(syrup::MicaHomePolicyAsm(n), syrup::Hook::kXdpSkb)
          .value());

  syrup::LoadGenConfig gen_config;
  gen_config.rate_rps = config.load_rps;
  gen_config.dst_port = kMicaPort;
  gen_config.num_flows = 256;
  gen_config.user_id = 1;
  gen_config.mix = {{syrup::ReqType::kGet, config.get_fraction},
                    {syrup::ReqType::kPut, 1.0 - config.get_fraction}};
  gen_config.seed = config.seed * 77 + 1;
  host.gen = MakeGenerator(sim, host, std::move(gen_config), tracer);
  host.gen->Start(config.warmup + config.measure);
}

// Wraps every hook callback syrupd installed in a dispatch span whose
// items are the packets the call decides.
void InterposeHooks(syrup::HostStack& stack, Tracer& tracer) {
  auto wrap = [&tracer](syrup::Hook hook, syrup::SteerHook& single,
                        syrup::BatchSteerHook& batch) {
    const SpanKind kind = DispatchSpanKind(hook);
    if (single) {
      single = [inner = std::move(single), &tracer,
                kind](const syrup::PacketView& pkt) {
        ScopedSpan span(tracer, kind);
        return inner(pkt);
      };
    }
    if (batch) {
      batch = [inner = std::move(batch), &tracer, kind](
                  std::span<const syrup::PacketView> pkts,
                  std::span<syrup::Decision> out) {
        ScopedSpan span(tracer, kind, pkts.size());
        inner(pkts, out);
      };
    }
  };
  syrup::StackHooks& hooks = stack.hooks();
  syrup::StackBatchHooks& batch = stack.batch_hooks();
  wrap(syrup::Hook::kXdpOffload, hooks.xdp_offload, batch.xdp_offload);
  wrap(syrup::Hook::kXdpDrv, hooks.xdp_drv, batch.xdp_drv);
  wrap(syrup::Hook::kXdpSkb, hooks.xdp_skb, batch.xdp_skb);
  wrap(syrup::Hook::kCpuRedirect, hooks.cpu_redirect, batch.cpu_redirect);
  wrap(syrup::Hook::kSocketSelect, hooks.socket_select, batch.socket_select);
}

void RunUntil(syrup::Simulator& sim, Time horizon, Tracer* tracer) {
  if (tracer == nullptr) {
    sim.RunUntil(horizon);
    return;
  }
  ScopedSpan span(*tracer, SpanKind::kSimRun);
  sim.RunUntil(horizon);
}

LatencySummary Summarize(const syrup::Histogram& histogram) {
  LatencySummary s;
  s.samples = histogram.count();
  s.p50_us = InterpolatedPercentile(histogram, 50) / 1000.0;
  s.p99_us = InterpolatedPercentile(histogram, 99) / 1000.0;
  s.p999_us = InterpolatedPercentile(histogram, 99.9) / 1000.0;
  return s;
}

// Builds the workload's host in `host`; with a tracer, interposes on its
// seams.
void BuildHost(syrup::Simulator& sim, const Workload& workload,
               Tracer* tracer, Host& host) {
  if (workload.is_mica) {
    BuildMica(sim, workload.mica, tracer, host);
  } else {
    BuildRocksDb(sim, workload.rocksdb, tracer, host);
  }
  if (tracer != nullptr) {
    InterposeHooks(*host.stack, *tracer);
  }
}

// Completion counts at the end of the window (the entry points'
// SnapshotRocksDbWindow / MICA window lambda).
struct WindowCounts {
  uint64_t completed = 0;
  uint64_t completed_get = 0;
  uint64_t completed_scan = 0;
};

}  // namespace

double InterpolatedPercentile(const syrup::Histogram& histogram, double pct) {
  const uint64_t n = histogram.count();
  if (n == 0) {
    return 0;
  }
  // Value at rank r (1-based): ValueAtQuantile rounds q * n + 0.5 down, so
  // q = r / n lands exactly on rank r. Monotone in r.
  auto at_rank = [&](uint64_t rank) {
    return histogram.ValueAtQuantile(static_cast<double>(rank) /
                                     static_cast<double>(n));
  };
  const uint64_t target = std::clamp<uint64_t>(
      static_cast<uint64_t>(pct / 100.0 * static_cast<double>(n) + 0.5), 1,
      n);
  const uint64_t edge = at_rank(target);
  // First and last ranks reported as this bucket's edge.
  uint64_t lo = 1;
  uint64_t hi = target;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (at_rank(mid) < edge) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint64_t first = lo;
  lo = target;
  hi = n;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at_rank(mid) > edge) {
      hi = mid - 1;
    } else {
      lo = mid;
    }
  }
  const uint64_t last = lo;
  const double below = static_cast<double>(
      first > 1 ? at_rank(first - 1) : std::min(histogram.min(), edge));
  const double share = static_cast<double>(target - first + 1) /
                       static_cast<double>(last - first + 1);
  return below + (static_cast<double>(edge) - below) * share;
}

HostTime TimeSetup(const Workload& workload) {
  const HostTimer timer;
  syrup::Simulator sim;
  Host host;
  BuildHost(sim, workload, nullptr, host);
  return timer.Elapsed();
}

AssembledRun RunAssembled(const Workload& workload, Tracer* tracer) {
  const HostTimer timer;
  syrup::Simulator sim;
  Host host;
  BuildHost(sim, workload, tracer, host);

  // The window protocol of RunRocksDbExperiment / RunMicaExperiment.
  const Time end = workload.warmup() + workload.measure();
  RunUntil(sim, workload.warmup(), tracer);
  const uint64_t completed_in_warmup = host.completed();
  host.ResetServerStats();
  const uint64_t sent_before = host.gen->sent();
  const uint64_t drops_before = host.stack->stats().TotalDrops();
  WindowCounts window;
  sim.ScheduleAt(end, [&host, w = &window]() {
    if (host.mica != nullptr) {
      w->completed = host.mica->completed();
      return;
    }
    w->completed = host.rocksdb->completed();
    w->completed_get = host.rocksdb->completed(syrup::ReqType::kGet);
    w->completed_scan = host.rocksdb->completed(syrup::ReqType::kScan);
  });
  RunUntil(sim, end + kDrain, tracer);

  // AggregateRocksDb / AggregateMica for one host.
  AssembledRun run;
  const uint64_t sent = host.gen->sent() - sent_before;
  const uint64_t drops = host.stack->stats().TotalDrops() - drops_before;
  const double window_sec = syrup::ToSeconds(workload.measure());
  const double drop_fraction =
      sent == 0 ? 0.0
                : static_cast<double>(drops) / static_cast<double>(sent);
  std::string stats_json;
  {
    std::optional<ScopedSpan> span;
    if (tracer != nullptr) {
      span.emplace(*tracer, SpanKind::kObsSnapshot);
    }
    run.snapshot = host.syrupd->StatsSnapshot();
    stats_json = run.snapshot.ToJson();
  }
  if (workload.is_mica) {
    syrup::Histogram latency;
    latency.Merge(host.mica->latency());
    syrup::MicaResult result;
    result.load_rps = workload.mica.load_rps;
    result.throughput_rps = static_cast<double>(window.completed) / window_sec;
    result.p999_us = ToUs(latency.Percentile(99.9));
    result.p50_us = ToUs(latency.Percentile(50));
    result.drop_fraction = drop_fraction;
    result.redirected = host.mica->redirected();
    result.stats_json = std::move(stats_json);
    run.canonical = CanonicalResult(result);
    run.overall = Summarize(latency);
    run.goodput_rps = result.throughput_rps;
  } else {
    syrup::Histogram overall;
    syrup::Histogram get_latency;
    syrup::Histogram scan_latency;
    overall.Merge(host.rocksdb->overall_latency());
    get_latency.Merge(host.rocksdb->latency(syrup::ReqType::kGet));
    scan_latency.Merge(host.rocksdb->latency(syrup::ReqType::kScan));
    syrup::RocksDbResult result;
    result.load_rps = workload.rocksdb.load_rps;
    result.throughput_rps = static_cast<double>(window.completed) / window_sec;
    result.get_throughput_rps =
        static_cast<double>(window.completed_get) / window_sec;
    result.scan_throughput_rps =
        static_cast<double>(window.completed_scan) / window_sec;
    result.p50_us = ToUs(overall.Percentile(50));
    result.p99_us = ToUs(overall.Percentile(99));
    result.p99_get_us = ToUs(get_latency.Percentile(99));
    result.p99_scan_us = ToUs(scan_latency.Percentile(99));
    result.drop_fraction = drop_fraction;
    result.stats_json = std::move(stats_json);
    run.canonical = CanonicalResult(result);
    run.overall = Summarize(overall);
    run.get = Summarize(get_latency);
    run.goodput_rps = result.throughput_rps;
  }
  run.host = timer.Elapsed();
  run.drop_fraction = drop_fraction;
  run.sent = host.gen->sent();
  run.completed = completed_in_warmup + host.completed();
  run.stack = host.stack->stats();
  run.dropped = run.stack.TotalDrops();
  run.engine = sim.engine_stats();

  // Settle, untraced: no new load arrives after `end`, so every request
  // still inside the host must complete or drop within kSettle.
  if (tracer != nullptr) {
    tracer->Pause();
  }
  sim.RunUntil(end + kDrain + kSettle);
  const uint64_t completed_settled = completed_in_warmup + host.completed();
  const uint64_t dropped_settled = host.stack->stats().TotalDrops();
  run.in_flight_end =
      (completed_settled - run.completed) + (dropped_settled - run.dropped);
  run.unaccounted = static_cast<int64_t>(run.sent) -
                    static_cast<int64_t>(completed_settled + dropped_settled);
  return run;
}

}  // namespace perfbench
