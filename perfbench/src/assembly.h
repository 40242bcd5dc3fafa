// The benchmark's own assembly of a workload's host.
//
// RunRocksDbExperiment / RunMicaExperiment own their simulator, stack,
// machine and generator, so nothing can be interposed from outside. This
// file builds the same host from the same public classes, in the same
// order and with the same seeds as src/apps/experiments.cc, which gives
// the traced pass the handles it needs: a span around HostStack::Rx in the
// generator's sink, around each StackHooks/StackBatchHooks callback syrupd
// installed, around the machine's Scheduler callbacks, around
// Simulator::RunUntil and around the stats snapshot. Untraced, it also
// exposes what the public results leave out (full latency histograms,
// request totals, engine counters). Its canonical result must equal the
// public entry point's; the benchmark checks that on every run.
#ifndef PERFBENCH_SRC_ASSEMBLY_H_
#define PERFBENCH_SRC_ASSEMBLY_H_

#include <cstdint>
#include <string>

#include "perfbench/src/tracer.h"
#include "perfbench/src/workloads.h"
#include "src/common/histogram.h"
#include "src/net/stack.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace perfbench {

// Percentile `pct` (0..100) of `histogram` in ns, interpolated by rank
// across the bucket that holds it, between the previous occupied bucket's
// edge and its own. Histogram::Percentile reports the bucket's upper edge,
// which has 1/32-octave (~3%) resolution; at 10^5+ samples seed-to-seed
// differences sit well inside one bucket, so the edge alone reads the same
// for most seeds and hides small shifts.
double InterpolatedPercentile(const syrup::Histogram& histogram, double pct);

// Latency quantiles (interpolated) of one request class over the
// measurement window.
struct LatencySummary {
  uint64_t samples = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

struct AssembledRun {
  // CanonicalResult of the result the public entry point would return.
  std::string canonical;
  // Host time from building the host to the finished result (the settle
  // phase below is excluded).
  HostTime host;

  // Measurement window.
  LatencySummary overall;
  LatencySummary get;  // GET class; RocksDB workloads only
  double goodput_rps = 0;
  double drop_fraction = 0;

  // Whole simulated span (warmup + window + drain).
  uint64_t sent = 0;
  uint64_t completed = 0;  // every completion, warmup included
  uint64_t dropped = 0;    // NIC ring + socket queue + policy drops
  syrup::Simulator::EngineStats engine;
  syrup::StackStats stack;
  syrup::obs::Snapshot snapshot;

  // Conservation: after the span the host runs on with no new load until
  // the backlog clears. `in_flight_end` counts the requests that completed
  // or dropped only then; `unaccounted` is sent minus every request that
  // ever completed or dropped (negative if one finished twice).
  uint64_t in_flight_end = 0;
  int64_t unaccounted = 0;
};

// Builds and runs the workload's host. With a tracer, every layer seam is
// bracketed by spans; without one, nothing is interposed.
AssembledRun RunAssembled(const Workload& workload, Tracer* tracer);

// Host time to build the workload's host, untraced, up to the first
// simulated event: create the simulator, stack, daemon, machine, servers and
// generator, and deploy the policies (assemble, verify, compile, JIT). The
// host is torn down outside the measured time.
HostTime TimeSetup(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ASSEMBLY_H_
