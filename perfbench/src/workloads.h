// The benchmark's workloads: three of the paper's evaluation configurations
// (Fig. 6 SITA, Fig. 9 MICA at XDP, Fig. 8 SCAN Avoid + ghOSt), each pinned
// to the bytecode policy path on the native tier with every other knob at
// its default, and the public experiment entry points that run them.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/apps/experiments.h"

namespace perfbench {

// Mirrors the drain period the experiment entry points run after the
// measurement window (src/apps/experiments.cc). The assembled host must use
// the same value to reproduce them; the equality check catches drift.
inline constexpr syrup::Duration kDrain = 50 * syrup::kMillisecond;

struct Workload {
  std::string_view name;
  std::string_view why;  // as in BENCHMARK.json
  bool is_mica = false;
  syrup::RocksDbExperimentConfig rocksdb;  // used when !is_mica
  syrup::MicaExperimentConfig mica;        // used when is_mica

  syrup::Duration warmup() const {
    return is_mica ? mica.warmup : rocksdb.warmup;
  }
  syrup::Duration measure() const {
    return is_mica ? mica.measure : rocksdb.measure;
  }
  // The app name syrupd files the workload's policy counters under.
  std::string_view app() const { return is_mica ? "mica" : "rocksdb"; }
};

std::span<const std::string_view> WorkloadNames();

// The named workload at `seed`, or nullopt for an unknown name.
std::optional<Workload> MakeWorkload(std::string_view name, uint64_t seed);

// The same workload over a different simulated span.
Workload WithSpan(Workload workload, syrup::Duration warmup,
                  syrup::Duration measure);

// Host time of a stretch of the benchmark: wall clock, and the CPU time the
// process used. On a shared virtual machine the wall clock also counts the
// time the hypervisor gives the CPU to other guests; CPU time leaves that out.
struct HostTime {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
};

// Measures the host time from its construction to each Elapsed() call.
class HostTimer {
 public:
  HostTimer();
  HostTime Elapsed() const;

 private:
  HostTime start_;
};

// Runs the workload through RunRocksDbExperiment / RunMicaExperiment and
// returns the canonical rendering of the result (see CanonicalResult).
// `host`, when given, receives the host time of the entry-point call.
std::string RunPublic(const Workload& workload, HostTime* host = nullptr);

// Every field of a public result, doubles printed round-trip exact, plus
// the run's stats snapshot with its wall-clock gauges removed. Two runs
// are the same simulation iff their canonical results are equal.
std::string CanonicalResult(const syrup::RocksDbResult& result);
std::string CanonicalResult(const syrup::MicaResult& result);

// Drops the snapshot metrics that time the deploy pipeline on the host
// (policy.compile_ns, policy.jit_ns, verifier.verify_ns); everything else
// in a snapshot is a pure function of the simulation.
std::string NormalizeStatsJson(std::string_view stats_json);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
