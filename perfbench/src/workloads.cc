#include "perfbench/src/workloads.h"

#include <time.h>

#include <array>
#include <charconv>
#include <chrono>
#include <sstream>

namespace perfbench {
namespace {

using syrup::kMillisecond;
using syrup::kSecond;

constexpr std::array<std::string_view, 3> kNames = {
    "rocksdb_sita", "mica_xdp", "rocksdb_cross_layer"};

// Every Syrup policy runs as bytecode on the native tier: the path that
// stays when the C++ policy mirrors go, so removing them later does not
// redefine a workload.
template <typename Config>
void PinPolicyPath(Config& config) {
  config.use_bytecode = true;
  config.exec_mode = syrup::bpf::ExecMode::kNative;
}

void AppendDouble(std::ostringstream& out, std::string_view name, double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out << name << '=' << std::string_view(buf, res.ptr - buf) << '\n';
}

HostTime Now() {
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return {static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count()),
          static_cast<uint64_t>(cpu.tv_sec) * 1'000'000'000u +
              static_cast<uint64_t>(cpu.tv_nsec)};
}

}  // namespace

HostTimer::HostTimer() : start_(Now()) {}

HostTime HostTimer::Elapsed() const {
  const HostTime now = Now();
  return {now.wall_ns - start_.wall_ns, now.cpu_ns - start_.cpu_ns};
}

std::span<const std::string_view> WorkloadNames() { return kNames; }

std::optional<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  Workload w;
  if (name == "rocksdb_sita") {
    // Fig. 6: SITA at the socket-select hook, inside its working range.
    w.name = kNames[0];
    w.why =
        "Fig. 6 SITA at 250k rps: the high-rate socket path; engine, "
        "stack and RocksDB model carry the host time, the stateful "
        "policy bypasses the flow cache";
    w.rocksdb.socket_policy = syrup::SocketPolicyKind::kSita;
    w.rocksdb.thread_sched = syrup::ThreadSchedKind::kPinned;
    w.rocksdb.num_threads = 6;
    w.rocksdb.num_cores = 6;
    w.rocksdb.load_rps = 250'000;
    w.rocksdb.get_fraction = 0.995;
    w.rocksdb.num_flows = 50;
    w.rocksdb.warmup = 200 * kMillisecond;
    w.rocksdb.measure = 1 * kSecond;
    w.rocksdb.seed = seed;
    PinPolicyPath(w.rocksdb);
  } else if (name == "mica_xdp") {
    // Fig. 9: home-core policy at XDP_SKB -> AF_XDP, below the knee.
    w.name = kNames[1];
    w.why =
        "Fig. 9 MICA syrup_sw at 2M rps: highest packet rate, no "
        "sockets, thread scheduler or maps; dispatch and the flow cache "
        "(the only cacheable policy) dominate";
    w.is_mica = true;
    w.mica.variant = syrup::MicaVariant::kSyrupSw;
    w.mica.load_rps = 2'000'000;
    w.mica.get_fraction = 0.95;
    w.mica.num_threads = 8;
    w.mica.warmup = 100 * kMillisecond;
    w.mica.measure = 500 * kMillisecond;
    w.mica.seed = seed;
    PinPolicyPath(w.mica);
  } else if (name == "rocksdb_cross_layer") {
    // Fig. 8: SCAN Avoid socket policy + ghOSt GetPriority thread policy.
    w.name = kNames[2];
    w.why =
        "Fig. 8 SCAN Avoid + ghOSt GetPriority at 8k rps: little "
        "dispatch; the ghOSt agent, thread scheduler and userspace "
        "scan_map updates do the work";
    w.rocksdb.socket_policy = syrup::SocketPolicyKind::kScanAvoid;
    w.rocksdb.thread_sched = syrup::ThreadSchedKind::kGhostGetPriority;
    w.rocksdb.num_threads = 36;
    w.rocksdb.num_cores = 6;
    w.rocksdb.load_rps = 8'000;
    w.rocksdb.get_fraction = 0.5;
    w.rocksdb.num_flows = 50;
    w.rocksdb.warmup = 200 * kMillisecond;
    w.rocksdb.measure = 10 * kSecond;
    w.rocksdb.seed = seed;
    PinPolicyPath(w.rocksdb);
  } else {
    return std::nullopt;
  }
  return w;
}

Workload WithSpan(Workload workload, syrup::Duration warmup,
                  syrup::Duration measure) {
  if (workload.is_mica) {
    workload.mica.warmup = warmup;
    workload.mica.measure = measure;
  } else {
    workload.rocksdb.warmup = warmup;
    workload.rocksdb.measure = measure;
  }
  return workload;
}

std::string RunPublic(const Workload& workload, HostTime* host) {
  const HostTimer timer;
  auto finish = [&](const auto& result) {
    if (host != nullptr) {
      *host = timer.Elapsed();
    }
    return CanonicalResult(result);
  };
  return workload.is_mica ? finish(syrup::RunMicaExperiment(workload.mica))
                          : finish(syrup::RunRocksDbExperiment(workload.rocksdb));
}

std::string CanonicalResult(const syrup::RocksDbResult& r) {
  std::ostringstream out;
  AppendDouble(out, "load_rps", r.load_rps);
  AppendDouble(out, "throughput_rps", r.throughput_rps);
  AppendDouble(out, "p50_us", r.p50_us);
  AppendDouble(out, "p99_us", r.p99_us);
  AppendDouble(out, "p99_get_us", r.p99_get_us);
  AppendDouble(out, "p99_scan_us", r.p99_scan_us);
  AppendDouble(out, "drop_fraction", r.drop_fraction);
  AppendDouble(out, "get_throughput_rps", r.get_throughput_rps);
  AppendDouble(out, "scan_throughput_rps", r.scan_throughput_rps);
  out << NormalizeStatsJson(r.stats_json);
  return out.str();
}

std::string CanonicalResult(const syrup::MicaResult& r) {
  std::ostringstream out;
  AppendDouble(out, "load_rps", r.load_rps);
  AppendDouble(out, "throughput_rps", r.throughput_rps);
  AppendDouble(out, "p999_us", r.p999_us);
  AppendDouble(out, "p50_us", r.p50_us);
  AppendDouble(out, "drop_fraction", r.drop_fraction);
  out << "redirected=" << r.redirected << '\n';
  out << NormalizeStatsJson(r.stats_json);
  return out.str();
}

std::string NormalizeStatsJson(std::string_view stats_json) {
  constexpr std::array<std::string_view, 3> kWallClock = {
      "\"policy.compile_ns\"", "\"policy.jit_ns\"", "\"verifier.verify_ns\""};
  std::string out;
  out.reserve(stats_json.size());
  while (!stats_json.empty()) {
    const size_t eol = stats_json.find('\n');
    const std::string_view line = stats_json.substr(0, eol);
    bool wall_clock = false;
    for (std::string_view key : kWallClock) {
      wall_clock = wall_clock || line.find(key) != std::string_view::npos;
    }
    if (!wall_clock) {
      out.append(line);
      out.push_back('\n');
    }
    if (eol == std::string_view::npos) {
      break;
    }
    stats_json.remove_prefix(eol + 1);
  }
  return out;
}

}  // namespace perfbench
