// Experiment-level determinism: the paper's fig2/fig9 pipelines must
// reproduce checked-in golden values bit for bit. Determinism is
// contractual (same seed => same execution), so every numeric result —
// throughputs, latency percentiles, drop fractions — must be exactly equal,
// not approximately. The pooled engine and the reference heap engine (now
// tests/oracles/reference_simulator.h) both produced these values, in
// Release, in a Debug ASan/UBSan build and with SYRUP_JIT_DISABLE=1. The
// event-level differential against that oracle lives in sim_test.
// `stats_json` is deliberately excluded: it embeds wall-clock compile-time
// gauges that differ between any two runs.
#include <gtest/gtest.h>

#include "src/apps/experiments.h"

namespace syrup {
namespace {

RocksDbExperimentConfig SmallRocksDbConfig() {
  RocksDbExperimentConfig config;
  config.socket_policy = SocketPolicyKind::kScanAvoid;
  config.load_rps = 60'000;
  config.get_fraction = 0.995;
  config.warmup = 50 * kMillisecond;
  config.measure = 200 * kMillisecond;
  config.seed = 7;
  return config;
}

MicaExperimentConfig SmallMicaConfig(MicaVariant variant) {
  MicaExperimentConfig config;
  config.variant = variant;
  config.load_rps = 400'000;
  config.warmup = 50 * kMillisecond;
  config.measure = 200 * kMillisecond;
  config.seed = 7;
  return config;
}

TEST(EngineDifferential, Fig2RocksDbBitExact) {
  const RocksDbResult result = RunRocksDbExperiment(SmallRocksDbConfig());
  EXPECT_EQ(result.throughput_rps, 0x1.dc86p+15);
  EXPECT_EQ(result.p50_us, 0x1.a9f7ced916873p+4);
  EXPECT_EQ(result.p99_us, 0x1.78d2f1a9fbe77p+5);
  EXPECT_EQ(result.p99_get_us, 0x1.47ac083126e98p+5);
  EXPECT_EQ(result.p99_scan_us, 0x1.6dfa7ef9db22dp+9);
  EXPECT_EQ(result.drop_fraction, 0.0);
  EXPECT_EQ(result.get_throughput_rps, 0x1.d9acp+15);
  EXPECT_EQ(result.scan_throughput_rps, 0x1.6dp+8);
}

TEST(EngineDifferential, Fig9MicaBitExact) {
  // SwRedirect exercises ForwardToHome.
  const MicaResult result =
      RunMicaExperiment(SmallMicaConfig(MicaVariant::kSwRedirect));
  EXPECT_EQ(result.throughput_rps, 0x1.86f64p+18);
  EXPECT_EQ(result.p50_us, 0x1.0e51eb851eb85p+4);
  EXPECT_EQ(result.p999_us, 0x1.a9f7ced916873p+4);
  EXPECT_EQ(result.drop_fraction, 0.0);
  EXPECT_EQ(result.redirected, 70183u);
}

TEST(EngineDifferential, Fig9MicaSyrupSwBitExact) {
  // SyrupSw exercises the AF_XDP delivery path.
  const MicaResult result =
      RunMicaExperiment(SmallMicaConfig(MicaVariant::kSyrupSw));
  EXPECT_EQ(result.throughput_rps, 0x1.86f64p+18);
  EXPECT_EQ(result.p50_us, 0x1.cab851eb851ecp+3);
  EXPECT_EQ(result.p999_us, 0x1.47a9fbe76c8b4p+4);
  EXPECT_EQ(result.drop_fraction, 0.0);
  EXPECT_EQ(result.redirected, 0u);
}

// --- Sharded engine (src/sim/sharded.h) -------------------------------------
//
// Contract one: `shards=1` wraps the very same engine in a ShardedSim and
// must reproduce the single-engine run bit for bit. Contract two: for a
// fixed shard count > 1, a run is bit-deterministic across repeats — the
// (when, src_shard, seq) drain order erases any physical thread timing.

void ExpectSameRocksDb(const RocksDbResult& a, const RocksDbResult& b) {
  EXPECT_EQ(a.load_rps, b.load_rps);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.p99_get_us, b.p99_get_us);
  EXPECT_EQ(a.p99_scan_us, b.p99_scan_us);
  EXPECT_EQ(a.drop_fraction, b.drop_fraction);
  EXPECT_EQ(a.get_throughput_rps, b.get_throughput_rps);
  EXPECT_EQ(a.scan_throughput_rps, b.scan_throughput_rps);
}

void ExpectSameMica(const MicaResult& a, const MicaResult& b) {
  EXPECT_EQ(a.load_rps, b.load_rps);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p999_us, b.p999_us);
  EXPECT_EQ(a.drop_fraction, b.drop_fraction);
  EXPECT_EQ(a.redirected, b.redirected);
}

TEST(ShardedDifferential, Fig2RocksDbOneShardBitExact) {
  const RocksDbExperimentConfig single = SmallRocksDbConfig();
  RocksDbExperimentConfig sharded = single;
  sharded.sharding.sim.shards = 1;
  ExpectSameRocksDb(RunRocksDbExperiment(single),
                    RunRocksDbExperiment(sharded));
}

TEST(ShardedDifferential, Fig9MicaOneShardBitExact) {
  const MicaExperimentConfig single = SmallMicaConfig(MicaVariant::kSwRedirect);
  MicaExperimentConfig sharded = single;
  sharded.sharding.sim.shards = 1;
  ExpectSameMica(RunMicaExperiment(single), RunMicaExperiment(sharded));
}

TEST(ShardedDifferential, Fig2RocksDbFourShardsRepeatable) {
  RocksDbExperimentConfig config = SmallRocksDbConfig();
  config.load_rps = 30'000;
  config.measure = 100 * kMillisecond;
  config.sharding.sim.shards = 4;
  for (uint64_t seed : {7u, 11u, 42u}) {
    config.seed = seed;
    const RocksDbResult first = RunRocksDbExperiment(config);
    const RocksDbResult second = RunRocksDbExperiment(config);
    SCOPED_TRACE(seed);
    ExpectSameRocksDb(first, second);
  }
}

TEST(ShardedDifferential, Fig9MicaFourShardsRepeatable) {
  MicaExperimentConfig config = SmallMicaConfig(MicaVariant::kSwRedirect);
  config.load_rps = 200'000;
  config.measure = 100 * kMillisecond;
  config.sharding.sim.shards = 4;
  for (uint64_t seed : {7u, 11u, 42u}) {
    config.seed = seed;
    const MicaResult first = RunMicaExperiment(config);
    const MicaResult second = RunMicaExperiment(config);
    SCOPED_TRACE(seed);
    ExpectSameMica(first, second);
  }
}

}  // namespace
}  // namespace syrup
