#include "perfbench/src/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "perfbench/src/assembly.h"
#include "perfbench/src/tracer.h"
#include "src/core/hook.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using syrup::Hook;

// Timed repetitions per run, at least; and setup-only calls per repetition.
constexpr int kMinReps = 3;
constexpr int kSetupsPerRep = 3;

// Every hook a workload runs bytecode at. Each workload reports all of
// them (0 where a hook is unused), so every run carries the same metric
// names.
constexpr std::array<Hook, 3> kPolicyHooks = {
    Hook::kSocketSelect, Hook::kXdpSkb, Hook::kThreadScheduler};
constexpr std::array<Hook, 5> kPacketHooks = {
    Hook::kXdpOffload, Hook::kXdpDrv, Hook::kXdpSkb, Hook::kCpuRedirect,
    Hook::kSocketSelect};

// Dispatch spans over all packet hooks. Each workload dispatches on one
// hook (socket_select or xdp_skb); a per-hook time would be a constant 0 on
// the workloads that never use that hook.
SpanTotals DispatchTotals(const Tracer& tracer) {
  SpanTotals sum;
  for (Hook hook : kPacketHooks) {
    const SpanTotals& d = tracer.totals(DispatchSpanKind(hook));
    sum.spans += d.spans;
    sum.items += d.items;
    sum.inclusive_ns += d.inclusive_ns;
  }
  return sum;
}
// Maps the policies declare and syrupd accounts for.
constexpr std::array<std::string_view, 2> kMaps = {"sita_state", "scan_map"};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0.0 : numerator / denominator;
}

std::string Of(uint64_t part, uint64_t base, std::string_view what) {
  return std::to_string(part) + " of " + std::to_string(base) + " " +
         std::string(what);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

std::string SpanNote(const Workload& w) {
  return std::to_string(syrup::ToSeconds(w.warmup())) + " s warmup + " +
         std::to_string(syrup::ToSeconds(w.measure())) + " s window + " +
         std::to_string(syrup::ToSeconds(kDrain)) + " s drain";
}

// Requests sent = completed + dropped + in flight at the end, and every
// request in flight at the end later completes or drops exactly once.
void CheckConservation(const AssembledRun& run, BenchResult& result) {
  if (run.unaccounted != 0) {
    result.failures.push_back(
        "conservation: sent " + std::to_string(run.sent) + " != completed " +
        std::to_string(run.completed) + " + dropped " +
        std::to_string(run.dropped) + " + in flight " +
        std::to_string(run.in_flight_end) + " (unaccounted " +
        std::to_string(run.unaccounted) + ")");
  }
}

// The entry-point runs of one seed agree with each other, and the
// benchmark's assembled host reproduces them.
void CheckAgainstEntryPoint(const DeterminismCheck& public_runs,
                            const AssembledRun& ref, BenchResult& result) {
  if (public_runs.first_mismatch() >= 0) {
    result.failures.push_back(
        "determinism: repetition " +
        std::to_string(public_runs.first_mismatch()) +
        " differs from repetition 0 at the same seed");
  }
  if (ref.canonical != public_runs.first()) {
    result.failures.push_back(
        "the assembled host does not reproduce the entry point's result");
  }
}

void CheckFinite(BenchResult& result) {
  for (const Metric& metric : result.metrics.metrics()) {
    if (!std::isfinite(metric.value)) {
      result.failures.push_back("metric " + metric.name + " is not finite");
    }
  }
}

// Runs `body` until `seconds` of wall time have passed and at least
// kMinReps times; returns the repetitions made.
template <typename Body>
int Repeat(double seconds, Body body) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  int reps = 0;
  while (reps < kMinReps || Clock::now() < deadline) {
    body();
    ++reps;
  }
  return reps;
}

void RunEndToEnd(const BenchOptions& options, BenchResult& result) {
  const Workload& w = options.workload;

  const AssembledRun ref = RunAssembled(w, nullptr);
  CheckConservation(ref, result);

  // Set-up: the benchmark's assembly of the host, built up to its first
  // event and torn down (TimeSetup). Those builds interleave with the timed
  // runs so both sample the same stretch of machine load.
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  DeterminismCheck determinism;
  std::vector<double> cpu_ns;
  double wall_ns = 0;
  result.reps = Repeat(options.seconds, [&]() {
    for (int i = 0; i < kSetupsPerRep; ++i) {
      const HostTime setup = TimeSetup(w);
      setup_cpu_s.push_back(static_cast<double>(setup.cpu_ns) * 1e-9);
      setup_wall_s.push_back(static_cast<double>(setup.wall_ns) * 1e-9);
    }
    HostTime host;
    determinism.Add(RunPublic(w, &host));
    cpu_ns.push_back(static_cast<double>(host.cpu_ns));
    wall_ns += static_cast<double>(host.wall_ns);
  });
  CheckAgainstEntryPoint(determinism, ref, result);

  // The fastest run: every run does the same simulated work (the
  // determinism check holds them identical), and interference from other
  // tenants of a shared machine only adds time. Such interference can swing
  // the CPU time of identical runs by 2x within a minute; the mean and the
  // median follow it, the fastest of many runs far less
  // (perfbench/README.md).
  const double sent = static_cast<double>(ref.sent);
  double total_cpu_ns = 0;
  for (double ns : cpu_ns) {
    total_cpu_ns += ns;
  }
  Report& m = result.metrics;
  m.Add("host_ns_per_req",
        *std::min_element(cpu_ns.begin(), cpu_ns.end()) / sent, "ns",
        "process CPU time, fastest of " + std::to_string(result.reps) +
            " runs (median " + FormatNumber(Median(cpu_ns) / sent) +
            ", mean " + FormatNumber(total_cpu_ns / (sent * result.reps)) +
            ", wall-clock mean " +
            FormatNumber(wall_ns / (sent * result.reps)) + "); base " +
            std::to_string(ref.sent) + " requests sent over " + SpanNote(w));
  m.Add("setup_s", Median(setup_cpu_s), "s",
        "process CPU time, median of " + std::to_string(setup_cpu_s.size()) +
            " builds up to the first event (wall-clock median " +
            FormatNumber(Median(setup_wall_s)) + ")");
  m.Add("peak_rss_mb", PeakRssMb(), "MB",
        "whole process, this workload only");
  const std::string samples =
      std::to_string(ref.overall.samples) + " samples in the window";
  m.Add("sim_p99_us", ref.overall.p99_us, "us", samples);
  m.Add("sim_goodput_rps", ref.goodput_rps, "1/s",
        "completed in the " +
            std::to_string(syrup::ToSeconds(w.measure())) + " s window");

  // Printed, not in the result line: on some workload each of these is
  // ill-conditioned across seeds, absent, or always 0 (perfbench/README.md).
  result.notes.push_back("sim_p50_us = " + FormatNumber(ref.overall.p50_us) +
                         " us, sim_p999_us = " +
                         FormatNumber(ref.overall.p999_us) + " us (" +
                         samples + ")");
  if (!w.is_mica) {
    result.notes.push_back("sim_p99_get_us = " +
                           FormatNumber(ref.get.p99_us) + " us (" +
                           std::to_string(ref.get.samples) + " GET samples)");
  }
  result.notes.push_back(
      "drop_frac = " + FormatNumber(ref.drop_fraction) +
      " (dropped requests are the result's `failed`)");
  result.attempted = ref.sent;
  result.failed = ref.dropped;
}

// Per-repetition span measurements of the traced pass.
using SpanSamples = std::map<std::string, std::vector<double>, std::less<>>;

void SampleSpans(const Workload& w, const AssembledRun& run,
                 const Tracer& tracer, SpanSamples& samples) {
  const double sent = static_cast<double>(run.sent);
  const SpanTotals& sim_run = tracer.totals(SpanKind::kSimRun);
  samples["sim.self_ns_per_req"].push_back(
      static_cast<double>(sim_run.self_ns) / sent);
  const SpanTotals& rx = tracer.totals(SpanKind::kNetRx);
  samples["net.rx_ns_per_pkt"].push_back(Ratio(
      static_cast<double>(rx.inclusive_ns), static_cast<double>(rx.items)));
  const SpanTotals dispatch = DispatchTotals(tracer);
  samples["core.dispatch_ns_per_pkt"].push_back(
      Ratio(static_cast<double>(dispatch.inclusive_ns),
            static_cast<double>(dispatch.items)));
  samples["sched.callback_ns_per_req"].push_back(
      static_cast<double>(tracer.totals(SpanKind::kSchedCallback).inclusive_ns) /
      sent);
  samples["obs.snapshot_ns"].push_back(static_cast<double>(
      tracer.totals(SpanKind::kObsSnapshot).inclusive_ns));
  double deploy_ns = 0;
  for (Hook hook : kPolicyHooks) {
    for (std::string_view gauge :
         {"verifier.verify_ns", "policy.compile_ns", "policy.jit_ns"}) {
      deploy_ns += static_cast<double>(
          run.snapshot.GaugeValue(w.app(), syrup::HookName(hook), gauge));
    }
  }
  samples["bpf.deploy_ns"].push_back(deploy_ns);
}

// The per-layer metrics. Counts come from the untraced reference run (the
// traced runs reproduce it exactly); times are medians over traced runs.
void AddLayerMetrics(const Workload& w, const AssembledRun& ref,
                     const Tracer& last_tracer, SpanSamples& spans,
                     double overhead_ratio, BenchResult& result) {
  Report& m = result.metrics;
  const double sent = static_cast<double>(ref.sent);
  const std::string per_req = "base " + std::to_string(ref.sent) +
                              " requests sent over " + SpanNote(w);
  const std::string reps =
      "median of " + std::to_string(result.reps) + " traced runs";
  auto span_median = [&](std::string_view name) {
    return Median(spans.find(name)->second);
  };
  auto counter = [&](std::string_view app, std::string_view hook,
                     std::string_view metric) {
    return ref.snapshot.CounterValue(app, hook, metric);
  };

  // sim
  m.Add("sim.events_per_req",
        static_cast<double>(ref.engine.dispatched) / sent, "count",
        std::to_string(ref.engine.dispatched) + " events; " + per_req);
  m.Add("sim.internal_allocs",
        static_cast<double>(ref.engine.internal_allocs()), "count",
        "engine slab refills + large callbacks + container growths");
  m.Add("sim.self_ns_per_req", span_median("sim.self_ns_per_req"), "ns",
        "RunUntil minus child spans; " + reps);

  // net
  m.Add("net.rx_ns_per_pkt", span_median("net.rx_ns_per_pkt"), "ns",
        "HostStack::Rx over " +
            std::to_string(last_tracer.totals(SpanKind::kNetRx).items) +
            " packets; " + reps);
  m.Add("net.drops.nic_ring", static_cast<double>(ref.stack.nic_ring_drops),
        "count", Of(ref.stack.nic_ring_drops, ref.stack.rx_packets, "rx"));
  m.Add("net.drops.socket", static_cast<double>(ref.stack.socket_drops),
        "count", Of(ref.stack.socket_drops, ref.stack.rx_packets, "rx"));
  m.Add("net.drops.policy", static_cast<double>(ref.stack.policy_drops),
        "count", Of(ref.stack.policy_drops, ref.stack.rx_packets, "rx"));
  // Table only: AF_XDP delivery (mica_xdp) records no latency, so the
  // mean would be a constant 0 there.
  const syrup::obs::HistogramSummary* delivery =
      ref.snapshot.Histogram("host", "stack", "delivery_latency_ns");
  result.notes.push_back(
      "net.delivery_mean_ns = " +
      FormatNumber(delivery == nullptr ? 0.0 : delivery->mean) +
      " ns (simulated NIC to socket, " +
      std::to_string(delivery == nullptr ? 0 : delivery->count) +
      " socket deliveries)");

  // core
  const SpanTotals dispatch = DispatchTotals(last_tracer);
  std::string per_hook;
  for (Hook hook : kPacketHooks) {
    const SpanTotals& d = last_tracer.totals(DispatchSpanKind(hook));
    if (d.spans > 0) {
      per_hook += std::string(per_hook.empty() ? "" : ", ") +
                  std::string(syrup::HookName(hook)) + " " +
                  std::to_string(d.items) + " packets";
    }
  }
  m.Add("core.dispatch_ns_per_pkt", span_median("core.dispatch_ns_per_pkt"),
        "ns", "hook callbacks: " + per_hook + "; " + reps);
  m.Add("core.pkts_per_dispatch",
        Ratio(static_cast<double>(dispatch.items),
              static_cast<double>(dispatch.spans)),
        "count",
        std::to_string(dispatch.items) + " packets in " +
            std::to_string(dispatch.spans) + " calls");
  uint64_t dispatched = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t uncacheable = 0;
  uint64_t evictions = 0;
  int64_t capacity = 0;
  for (Hook hook : kPacketHooks) {
    const std::string_view h = syrup::HookName(hook);
    const uint64_t hook_dispatched = counter("syrupd", h, "dispatched");
    dispatched += hook_dispatched;
    hits += counter("syrupd", h, "flow_cache.hits");
    misses += counter("syrupd", h, "flow_cache.misses");
    uncacheable += counter("syrupd", h, "flow_cache.uncacheable");
    evictions += counter("syrupd", h, "flow_cache.evictions");
    if (hook_dispatched > 0) {
      capacity += ref.snapshot.GaugeValue("syrupd", h, "flow_cache.capacity");
    }
  }
  const auto d_dispatched = static_cast<double>(dispatched);
  m.Add("core.flow_cache.hit_ratio",
        Ratio(static_cast<double>(hits), d_dispatched), "ratio",
        Of(hits, dispatched, "dispatched packets hit"));
  m.Add("core.flow_cache.uncacheable_share",
        Ratio(static_cast<double>(uncacheable), d_dispatched), "ratio",
        Of(uncacheable, dispatched, "dispatched packets uncacheable"));
  m.Add("core.flow_cache.evictions_per_req",
        static_cast<double>(evictions) / sent, "count",
        std::to_string(evictions) + " evictions; " + per_req);
  m.Add("core.flow_cache.capacity_slots", static_cast<double>(capacity),
        "count", "slots of the tables of hooks that dispatched, at the end");
  m.Add("core.flow_cache.hits", static_cast<double>(hits), "count",
        Of(hits, dispatched, "dispatched packets"));
  m.Add("core.flow_cache.misses", static_cast<double>(misses), "count",
        Of(misses, dispatched, "dispatched packets"));

  // bpf
  uint64_t faults = 0;
  for (Hook hook : kPolicyHooks) {
    const std::string name(syrup::HookName(hook));
    const uint64_t invocations = counter(w.app(), name, "policy.invocations");
    const auto d_invocations = static_cast<double>(invocations);
    m.Add("bpf.invocations_per_req." + name,
          static_cast<double>(invocations) / sent, "count",
          std::to_string(invocations) + " invocations; " + per_req);
    m.Add("bpf.insns_per_invocation." + name,
          Ratio(static_cast<double>(counter(w.app(), name, "policy.insns")),
                d_invocations),
          "count", "of " + std::to_string(invocations) + " invocations");
    m.Add("bpf.helper_calls_per_invocation." + name,
          Ratio(static_cast<double>(
                    counter(w.app(), name, "policy.helper_calls")),
                d_invocations),
          "count", "of " + std::to_string(invocations) + " invocations");
    faults += counter(w.app(), name, "policy.runtime_faults");
  }
  m.Add("bpf.runtime_faults", static_cast<double>(faults), "count",
        "all hooks");
  m.Add("bpf.deploy_ns", span_median("bpf.deploy_ns"), "ns",
        "verify + compile + JIT of every program, from the snapshot; " + reps);

  // map
  for (std::string_view map : kMaps) {
    const std::string name(map);
    const uint64_t lookups = counter(w.app(), "map", name + ".lookups");
    const uint64_t updates = counter(w.app(), "map", name + ".updates");
    m.Add("map." + name + ".lookups_per_req",
          static_cast<double>(lookups) / sent, "count",
          std::to_string(lookups) + " lookups; " + per_req);
    m.Add("map." + name + ".updates_per_req",
          static_cast<double>(updates) / sent, "count",
          std::to_string(updates) + " updates; " + per_req);
    m.Add("map." + name + ".misses",
          static_cast<double>(counter(w.app(), "map", name + ".misses")),
          "count", "of " + std::to_string(lookups) + " lookups");
  }

  // sched / ghost
  const SpanTotals& sched = last_tracer.totals(SpanKind::kSchedCallback);
  m.Add("sched.callback_ns_per_req", span_median("sched.callback_ns_per_req"),
        "ns",
        std::to_string(sched.spans) + " scheduler callbacks; " + per_req +
            "; " + reps);
  for (auto [metric, counter_name] :
       {std::pair<std::string_view, std::string_view>{"messages_per_req",
                                                      "messages_processed"},
        {"context_switches_per_req", "context_switches"},
        {"preemptions_per_req", "preemptions"}}) {
    const uint64_t n = counter(w.app(), "thread_scheduler", counter_name);
    m.Add("ghost." + std::string(metric), static_cast<double>(n) / sent,
          "count", std::to_string(n) + " " + std::string(counter_name));
  }

  // apps
  m.Add("apps.sent", sent, "count", SpanNote(w));
  m.Add("apps.completed", static_cast<double>(ref.completed), "count",
        "warmup included");
  m.Add("apps.in_flight_end", static_cast<double>(ref.in_flight_end), "count",
        "completed or dropped after the drain");

  // obs
  m.Add("obs.snapshot_ns", span_median("obs.snapshot_ns"), "ns",
        "StatsSnapshot().ToJson(); " + reps);
  m.Add("trace.overhead_ratio", overhead_ratio, "ratio",
        "traced / untraced host CPU time of " + std::to_string(result.reps) +
            " alternating run pairs");
}

void RunTraced(const BenchOptions& options, BenchResult& result) {
  const Workload& w = options.workload;
  const AssembledRun ref = RunAssembled(w, nullptr);
  CheckConservation(ref, result);

  SpanSamples spans;
  DeterminismCheck public_runs;
  double untraced_cpu_ns = 0;
  double traced_cpu_ns = 0;
  std::unique_ptr<Tracer> last_tracer;
  bool traced_matches = true;
  result.reps = Repeat(options.seconds, [&]() {
    HostTime untraced;
    public_runs.Add(RunPublic(w, &untraced));
    untraced_cpu_ns += static_cast<double>(untraced.cpu_ns);

    auto tracer = std::make_unique<Tracer>();
    const AssembledRun traced = RunAssembled(w, tracer.get());
    traced_cpu_ns += static_cast<double>(traced.host.cpu_ns);
    traced_matches = traced_matches && traced.canonical == ref.canonical;
    SampleSpans(w, traced, *tracer, spans);
    if (last_tracer == nullptr && !options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      tracer->WriteChromeTrace(out);
    }
    last_tracer = std::move(tracer);
  });
  CheckAgainstEntryPoint(public_runs, ref, result);
  if (!traced_matches) {
    result.failures.push_back(
        "the traced pass does not reproduce the untraced simulated metrics; "
        "its per-layer numbers are invalid");
  }
  AddLayerMetrics(w, ref, *last_tracer, spans,
                  traced_cpu_ns / untraced_cpu_ns, result);
  result.attempted = ref.sent;
  result.failed = ref.dropped;
}

}  // namespace

void DeterminismCheck::Add(std::string canonical_result) {
  if (runs_ == 0) {
    first_ = std::move(canonical_result);
  } else if (first_mismatch_ < 0 && canonical_result != first_) {
    first_mismatch_ = runs_;
  }
  ++runs_;
}

BenchResult RunBenchmark(const BenchOptions& options) {
  BenchResult result;
  if (options.trace) {
    RunTraced(options, result);
  } else {
    RunEndToEnd(options, result);
  }
  CheckFinite(result);
  return result;
}

}  // namespace perfbench
